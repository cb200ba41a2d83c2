#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>
#include <random>
#include <stdexcept>
#include <string_view>

namespace cwbench {
namespace {

// Route-class weights, in percent of requests.
constexpr int kClassWeight[kRouteClasses] = {69, 10, 10, 5, 5, 1};
constexpr double kZipfExponent = 1.2;
// Drain window after the last send: a response not back by then is failed.
constexpr std::int64_t kDrainNs = 2'000'000'000;
// Request spans sampled into the tracer: one in this many.
constexpr std::uint64_t kSpanSampling = 256;

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Schedule {
  std::vector<std::int64_t> due_ns;  // offsets from the phase start
  std::vector<std::uint32_t> route;
};

class Sampler {
 public:
  explicit Sampler(const RouteSet& routes) : routes_(routes) {
    double total = 0.0;
    for (std::uint64_t rank = 0; rank < std::max<std::uint64_t>(routes.epochs, 1); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    int acc = 0;
    for (int cls = 0; cls < kRouteClasses; ++cls) {
      if (!routes.by_class[cls].empty()) acc += kClassWeight[cls];
      class_cdf_[cls] = acc;
    }
  }

  std::uint32_t draw(std::mt19937_64& rng) const {
    const int pick = static_cast<int>(rng() % static_cast<std::uint64_t>(class_cdf_[kRouteClasses - 1]));
    int cls = 0;
    while (pick >= class_cdf_[cls]) ++cls;
    const auto& list = routes_.by_class[cls];
    const std::size_t per_epoch = routes_.per_epoch[cls];
    if (per_epoch == 0) return list[rng() % list.size()];
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    const std::size_t epochs = list.size() / per_epoch;
    return list[std::min(rank, epochs - 1) * per_epoch + rng() % per_epoch];
  }

 private:
  const RouteSet& routes_;
  std::vector<double> zipf_cdf_;
  int class_cdf_[kRouteClasses] = {};
};

Schedule make_schedule(const Sampler& sampler, double rate, double seconds, std::uint64_t seed) {
  Schedule schedule;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  const double end = seconds;
  for (double t = gap(rng); t < end; t += gap(rng)) {
    schedule.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    schedule.route.push_back(sampler.draw(rng));
  }
  return schedule;
}

struct ConnResult {
  std::vector<double> latency_us;
  std::vector<double> gen_lag_us;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::size_t backlog_max = 0;
};

// One keep-alive connection's state: its schedule, what is buffered each
// way, and the requests sent but not yet answered (in order).
struct Conn {
  unsigned id = 0;
  int fd = -1;
  const Schedule* schedule = nullptr;
  ConnResult* out = nullptr;
  std::string outbuf;
  std::size_t out_off = 0;
  std::string inbuf;
  std::size_t in_off = 0;
  std::deque<std::size_t> fifo;
  std::size_t next = 0;
  bool broken = false;

  [[nodiscard]] bool done() const {
    return broken || (next == schedule->due_ns.size() && fifo.empty());
  }
};

// Sends what is due, reads what arrived, and matches complete responses.
void step(const LoadConfig& config, const RouteSet& routes, std::int64_t t0, Conn& c,
          char* chunk, std::size_t chunk_size) {
  const Schedule& schedule = *c.schedule;
  const std::size_t n = schedule.due_ns.size();
  std::int64_t t = now_ns();
  while (c.next < n && t0 + schedule.due_ns[c.next] <= t) {
    const Route& route = routes.routes[schedule.route[c.next]];
    c.outbuf += "GET ";
    c.outbuf += route.target;
    c.outbuf += " HTTP/1.1\r\nHost: bench\r\n\r\n";
    c.out->gen_lag_us[c.next] = static_cast<double>(t - (t0 + schedule.due_ns[c.next])) / 1e3;
    c.fifo.push_back(c.next);
    ++c.next;
  }
  c.out->backlog_max = std::max(c.out->backlog_max, c.fifo.size());
  while (c.out_off < c.outbuf.size()) {
    const ssize_t sent =
        ::send(c.fd, c.outbuf.data() + c.out_off, c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
    if (sent > 0) {
      c.out_off += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.broken = true;
    return;
  }
  if (c.out_off == c.outbuf.size()) {
    c.outbuf.clear();
    c.out_off = 0;
  }
  for (;;) {
    const ssize_t got = ::recv(c.fd, chunk, chunk_size, 0);
    if (got > 0) {
      c.inbuf.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.broken = true;  // peer closed or hard error
    return;
  }
  t = now_ns();
  while (!c.fifo.empty()) {
    const std::string_view view(c.inbuf.data() + c.in_off, c.inbuf.size() - c.in_off);
    const std::size_t head_end = view.find("\r\n\r\n");
    if (head_end == std::string_view::npos) break;
    const std::size_t cl = view.substr(0, head_end).find("Content-Length: ");
    std::size_t body = 0;
    if (cl != std::string_view::npos) {
      body = static_cast<std::size_t>(std::strtoull(view.data() + cl + 16, nullptr, 10));
    }
    const std::size_t total = head_end + 4 + body;
    if (view.size() < total) break;
    const std::size_t i = c.fifo.front();
    c.fifo.pop_front();
    const std::int64_t due = t0 + schedule.due_ns[i];
    if (view.substr(0, total) == routes.routes[schedule.route[i]].expected) {
      c.out->latency_us[i] = static_cast<double>(t - due) / 1e3;
    } else {
      ++c.out->failed;
      ++c.out->mismatched;
    }
    if (config.tracer != nullptr && (i % kSpanSampling) == 0) {
      config.tracer->add("serve.request", due, t, config.parent_span, i, 10 + c.id);
    }
    c.in_off += total;
  }
  if (c.in_off > 0 && c.in_off == c.inbuf.size()) {
    c.inbuf.clear();
    c.in_off = 0;
  } else if (c.in_off > (1U << 20)) {
    c.inbuf.erase(0, c.in_off);
    c.in_off = 0;
  }
}

// Drives the connections until every request is answered or the drain
// window after the last due time has passed.
void drive_loop(const LoadConfig& config, const RouteSet& routes, std::vector<Conn>& conns,
                std::int64_t t0) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // ppoll timeouts at microsecond precision
  std::int64_t last_due = t0;
  for (Conn& c : conns) {
    const std::size_t n = c.schedule->due_ns.size();
    c.out->latency_us.assign(n, std::numeric_limits<double>::infinity());
    c.out->gen_lag_us.assign(n, 0.0);
    c.fd = connect_nonblocking(config.port);
    c.broken = c.fd < 0;
    if (n > 0) last_due = std::max(last_due, t0 + c.schedule->due_ns.back());
  }
  std::vector<char> chunk(65536);
  std::vector<pollfd> fds;
  for (;;) {
    std::int64_t wake = std::numeric_limits<std::int64_t>::max();
    bool all_done = true;
    fds.clear();
    for (Conn& c : conns) {
      if (c.done()) continue;
      step(config, routes, t0, c, chunk.data(), chunk.size());
      if (c.done()) continue;
      all_done = false;
      if (c.next < c.schedule->due_ns.size()) {
        wake = std::min(wake, t0 + c.schedule->due_ns[c.next]);
      }
      fds.push_back(pollfd{c.fd, static_cast<short>(POLLIN | (c.outbuf.empty() ? 0 : POLLOUT)), 0});
    }
    if (all_done) break;
    const std::int64_t t = now_ns();
    if (t > last_due + kDrainNs) break;
    // Wait for the next due time or for bytes.
    const std::int64_t wait = std::min(wake, t + 1'000'000) - t;
    if (wait > 0) {
      const timespec ts{0, static_cast<long>(wait)};
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
  }
  for (Conn& c : conns) {
    c.out->failed += c.fifo.size();                       // never answered
    c.out->failed += c.schedule->due_ns.size() - c.next;  // never sent
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Drives a phase on the calling thread, reporting that thread's CPU time.
// A failure inside (say, out of memory) fails the requests left unanswered.
void drive(const LoadConfig& config, const RouteSet& routes, std::vector<Conn>& conns,
           std::int64_t t0, double& cpu_s) {
  const double cpu_start = thread_cpu_s();
  try {
    drive_loop(config, routes, conns, t0);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "load generator: %s\n", error.what());
    for (Conn& c : conns) {
      if (c.out->latency_us.size() != c.schedule->due_ns.size()) {
        c.out->latency_us.assign(c.schedule->due_ns.size(),
                                 std::numeric_limits<double>::infinity());
        c.out->gen_lag_us.assign(c.schedule->due_ns.size(), 0.0);
      }
      c.out->failed = c.schedule->due_ns.size();
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  cpu_s = thread_cpu_s() - cpu_start;
}

}  // namespace

void append_phase(PhaseResult& into, const PhaseResult& next) {
  for (const double due : next.due_s) into.due_s.push_back(into.seconds + due);
  into.latency_us.insert(into.latency_us.end(), next.latency_us.begin(), next.latency_us.end());
  into.gen_lag_us.insert(into.gen_lag_us.end(), next.gen_lag_us.begin(), next.gen_lag_us.end());
  into.server_cpu_s += next.server_cpu_s;
  into.seconds += next.seconds;
  into.attempted += next.attempted;
  into.failed += next.failed;
  into.mismatched += next.mismatched;
  into.backlog_max = std::max(into.backlog_max, next.backlog_max);
}

std::uint64_t warm_up(std::uint16_t port, const RouteSet& routes) {
  LoadConfig config;
  config.port = port;
  config.connections = 1;
  // Every route once, due 20 us apart: an in-order sweep.
  Schedule schedule;
  for (std::uint32_t i = 0; i < routes.routes.size(); ++i) {
    schedule.due_ns.push_back(static_cast<std::int64_t>(i) * 20'000);
    schedule.route.push_back(i);
  }
  ConnResult result;
  std::vector<Conn> conns(1);
  conns[0].schedule = &schedule;
  conns[0].out = &result;
  double cpu_s = 0.0;
  drive(config, routes, conns, now_ns(), cpu_s);
  return result.failed;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t k = std::min(values.size() - 1,
                                 static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
  return values[k];
}

double windowed_percentile(const PhaseResult& phase, double q, int windows) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(std::max(1, windows)));
  for (std::size_t i = 0; i < phase.latency_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(phase.due_s[i] / phase.seconds * slices.size());
    slices[std::min(w, slices.size() - 1)].push_back(phase.latency_us[i]);
  }
  std::vector<double> tails;
  for (auto& slice : slices) {
    if (!slice.empty()) tails.push_back(percentile(std::move(slice), q));
  }
  return percentile(std::move(tails), 0.5);
}

PhaseResult run_phase(const LoadConfig& config, const RouteSet& routes, double rate,
                      double seconds, std::uint64_t phase_id) {
  PhaseResult result;
  result.seconds = seconds;
  const Sampler sampler(routes);
  const unsigned conns = std::max(1U, config.connections);
  std::vector<Schedule> schedules;
  for (unsigned c = 0; c < conns; ++c) {
    const std::uint64_t stream = (config.seed * 0x9E3779B97F4A7C15ULL) ^ (phase_id << 8) ^ c;
    schedules.push_back(make_schedule(sampler, rate / conns, seconds, stream));
  }
  std::vector<ConnResult> conn_results(conns);
  std::vector<Conn> group(conns);
  for (unsigned c = 0; c < conns; ++c) {
    group[c].id = c;
    group[c].schedule = &schedules[c];
    group[c].out = &conn_results[c];
  }
  const double cpu_start = process_cpu_s();
  double client_cpu_s = 0.0;
  drive(config, routes, group, now_ns() + 5'000'000, client_cpu_s);
  result.server_cpu_s = process_cpu_s() - cpu_start - client_cpu_s;

  for (unsigned c = 0; c < conns; ++c) {
    const Schedule& schedule = schedules[c];
    const ConnResult& cr = conn_results[c];
    result.attempted += schedule.due_ns.size();
    result.failed += cr.failed;
    result.mismatched += cr.mismatched;
    result.backlog_max = std::max(result.backlog_max, cr.backlog_max);
    result.latency_us.insert(result.latency_us.end(), cr.latency_us.begin(), cr.latency_us.end());
    for (const std::int64_t due : schedule.due_ns) result.due_s.push_back(static_cast<double>(due) / 1e9);
    result.gen_lag_us.insert(result.gen_lag_us.end(), cr.gen_lag_us.begin(), cr.gen_lag_us.end());
  }
  return result;
}

}  // namespace cwbench
