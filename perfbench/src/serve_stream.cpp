// serve_stream: a seeded NDJSON request stream through serve::Server's own
// request loop (serve_fd over a socket pair, as `drbml serve` runs it),
// driven by one closed-loop client with one request outstanding.
//
// Each repetition starts a fresh server on an empty cache whose byte
// budget is below the stream's working set, so repeats of old requests
// can miss after an eviction. The first repetition's server is built
// during set-up, so setup_s covers Server construction. One operation is
// one request.
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/detector.hpp"
#include "eval/artifact_cache.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "repair/repair.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = drbml::json;

constexpr std::size_t kRequests = 1200;
/// Requests that carry a kernel not seen earlier in the stream (30%); the
/// rest repeat an earlier request.
constexpr std::size_t kFresh = 360;
/// Below the stream's working set (about 0.48 MB resident with no budget).
constexpr std::uint64_t kCacheBudget = 384 * 1024;

struct Request {
  std::size_t kernel = 0;     // index into Inputs::synth
  std::string verb;           // analyze | lint | fix | explore
  std::string detector;       // analyze only: static | hybrid
  std::size_t first = 0;      // position of the first identical request
  std::string line;           // the NDJSON request, no newline
};

/// The verb a kernel is first requested with: a fixed function of the
/// kernel, not of the seed, so every seed computes the same misses. No
/// recorded traffic exists to weight the verbs by, so each of the five
/// request kinds the daemon serves gets an equal share.
void assign_verb(std::size_t kernel, Request& r) {
  switch (Rng(0x5e7e0000ULL + kernel).next() % 5) {
    case 0:
      r.verb = "analyze";
      r.detector = "static";
      break;
    case 1:
      r.verb = "analyze";
      r.detector = "hybrid";
      break;
    case 2:
      r.verb = "lint";
      break;
    case 3:
      r.verb = "fix";
      break;
    default:
      r.verb = "explore";
  }
}

std::string request_id(std::size_t position) {
  std::string id = "r";
  id += std::to_string(position);
  return id;
}

std::string request_line(const std::string& id, const Request& r,
                         const std::string& code) {
  json::Object o;
  o.set("id", json::Value(id));
  o.set("verb", json::Value(r.verb));
  if (!r.detector.empty()) o.set("detector", json::Value(r.detector));
  o.set("code", json::Value(code));
  return json::Value(std::move(o)).dump();
}

std::vector<Request> make_stream(const Inputs& in, std::uint64_t seed) {
  if (in.synth.size() < kFresh) {
    throw std::runtime_error("serve_stream needs at least 360 synth kernels");
  }
  Rng rng(seed);
  std::vector<std::size_t> kernels(in.synth.size());
  std::iota(kernels.begin(), kernels.end(), 0);
  rng.shuffle(kernels);
  std::vector<std::size_t> later(kRequests - 1);
  std::iota(later.begin(), later.end(), 1);
  rng.shuffle(later);
  std::vector<bool> fresh(kRequests, false);
  fresh[0] = true;
  for (std::size_t k = 0; k + 1 < kFresh; ++k) fresh[later[k]] = true;

  std::vector<Request> stream(kRequests);
  std::size_t next_kernel = 0;
  for (std::size_t p = 0; p < kRequests; ++p) {
    Request& r = stream[p];
    if (fresh[p]) {
      r.kernel = kernels[next_kernel++];
      assign_verb(r.kernel, r);
      r.first = p;
    } else {
      r = stream[rng.below(p)];
    }
    r.line = request_line(request_id(p), r, in.synth[r.kernel].code);
  }
  return stream;
}

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve_stream: request write failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Reads newline-terminated responses from the client end of the pair.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// The next line, without its newline; throws at EOF.
  std::string next() {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 65536) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return line;
      }
      if (!fill()) throw std::runtime_error("serve_stream: response missing");
    }
  }

  /// Everything left until EOF (extra responses, if any).
  std::string rest() {
    while (fill()) {
    }
    return buf_.substr(pos_);
  }

 private:
  bool fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// One server session: a fresh Server reading and answering on one end of
/// a socket pair from its own thread. The destructor ends the stream and
/// joins, on every path.
class Session {
 public:
  Session() : server_(options()) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error(std::string("socketpair: ") +
                               std::strerror(errno));
    }
    thread_ = std::thread([this] { server_.serve_fd(fds_[1], fds_[1]); });
  }
  ~Session() {
    finish();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] int client_fd() const { return fds_[0]; }

  /// Ends the request stream, waits for the server loop to drain, then
  /// ends the response stream so the client reads EOF after the last one.
  void finish() {
    if (!thread_.joinable()) return;
    ::shutdown(fds_[0], SHUT_WR);
    thread_.join();
    ::shutdown(fds_[1], SHUT_WR);
  }

 private:
  static drbml::serve::ServerOptions options() {
    drbml::serve::ServerOptions o;
    o.jobs = 1;
    o.cache_budget = kCacheBudget;
    return o;
  }

  drbml::serve::Server server_;
  int fds_[2] = {-1, -1};
  std::thread thread_;
};

/// The response with its leading `{"id":"..."` member removed, so repeats
/// of one request under different ids compare byte for byte.
std::string without_id(const std::string& response) {
  const std::size_t comma = response.find(',');
  return comma == std::string::npos ? response : response.substr(comma);
}

std::string check_pairs_json(const json::Value& result) {
  const json::Value* pairs = result.as_object().find("pairs");
  if (pairs == nullptr) return "";
  for (const json::Value& p : pairs->as_array()) {
    if (p.as_object().at("first").as_object().at("op").as_string() != "w" &&
        p.as_object().at("second").as_object().at("op").as_string() != "w") {
      return "reported pair has no write";
    }
  }
  return "";
}

/// Independent checks on the first response to each distinct request.
std::string check_response(const Request& r, std::size_t position,
                           const std::string& response, const Source& src) {
  const json::Value v = json::parse(response);
  const json::Object& o = v.as_object();
  if (o.at("id").as_string() != request_id(position)) {
    return "response id does not match the request";
  }
  if (!o.at("ok").as_bool()) return "error response: " + response;
  const json::Value& result = o.at("result");
  const json::Object& res = result.as_object();
  if (r.verb == "analyze") {
    std::string why = check_pairs_json(result);
    if (!why.empty()) return why;
    if (res.at("race").as_bool() !=
        drbml::core::make_detector(r.detector)->analyze(src.code).race) {
      return "analyze verdict differs from a direct " + r.detector +
             " detector";
    }
  } else if (r.verb == "explore") {
    if (res.at("race").as_bool()) {
      if (!src.racy) return "explore race reported on a -no input";
      return check_witness(src.code, res.at("witness").as_string());
    }
  } else if (r.verb == "fix") {
    if (res.at("status").as_string() ==
        drbml::repair::repair_status_name(drbml::repair::RepairStatus::Fixed)) {
      return check_fix(src.code, res.at("patched").as_string());
    }
  }
  return "";
}

/// Keeps the client, the server's reader thread and its worker on the CPU
/// the harness starts on, so a request passes between them by context
/// switches and that CPU does not idle within a pass. Left free, the
/// scheduler at times wakes a thread on an idle virtual CPU, which the
/// host must first wake up; then that wake-up, not the server's work, sets
/// a cache hit's latency. On a 4-vCPU VM, alternating runs read op_p50_ms
/// at 34-37 us unpinned against 15-17 us pinned; unpinned, its
/// interquartile range over ten runs reached 0.7 of its median.
/// Threads started later inherit the calling thread's affinity.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) throw std::runtime_error("sched_getcpu failed");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error(std::string("sched_setaffinity: ") +
                             std::strerror(errno));
  }
}

json::Value stats_cache(Session& s, LineReader& reader) {
  write_all(s.client_fd(), "{\"id\":\"stats\",\"verb\":\"stats\"}\n");
  const json::Value v = json::parse(reader.next());
  return v.as_object().at("result").as_object().at("cache");
}

}  // namespace

Result run_serve_stream(const Inputs& in, const Options& opts) {
  const std::vector<Request> stream = make_stream(in, opts.seed);
  const std::size_t n = stream.size();
  drbml::eval::ArtifactCache& cache = drbml::eval::artifact_cache();
  drbml::obs::Counter& evictions =
      drbml::obs::metrics().counter(drbml::obs::kCacheEvictCount);

  pin_to_current_cpu();
  std::unique_ptr<Session> built = std::make_unique<Session>();
  const RepFn rep = [&](bool traced, bool check) {
    const std::unique_ptr<Session> session =
        built ? std::move(built) : std::make_unique<Session>();
    cache.clear();
    Rep r;
    r.op_calls_ms.assign(n, {});
    std::vector<std::string> responses(n);
    std::vector<bool> hit(n, false);
    const std::map<std::string, double> repair0 = repair_counters();
    const std::uint64_t evictions0 = evictions.value();

    std::string extra;
    json::Value cache0;
    json::Value cache1;
    {
      LineReader reader(session->client_fd());
      if (traced) cache0 = stats_cache(*session, reader);
      const Clock::time_point start = Clock::now();
      for (std::size_t p = 0; p < n; ++p) {
        Scope span("serve.request", stream[p].verb);
        const std::uint64_t computes0 = traced ? cache_counter_sum(true) : 0;
        const Clock::time_point t0 = Clock::now();
        write_all(session->client_fd(), stream[p].line + "\n");
        responses[p] = reader.next();
        r.op_calls_ms[p] = {seconds_between(t0, Clock::now()) * 1e3};
        if (traced) hit[p] = cache_counter_sum(true) == computes0;
      }
      r.wall_s = seconds_between(start, Clock::now());
      if (traced) cache1 = stats_cache(*session, reader);
      session->finish();
      extra = reader.rest();
    }

    for (std::size_t p = 0; p < n; ++p) {
      Fingerprint fp;
      fp.add(responses[p]);
      if (p + 1 == n) fp.add(extra);
      r.op_print.push_back(fp.value());
    }

    if (check) {
      r.op_failure.assign(n, "");
      for (std::size_t p = 0; p < n; ++p) {
        const Request& q = stream[p];
        std::string why;
        if (q.first != p) {
          if (without_id(responses[p]) != without_id(responses[q.first])) {
            why = "repeated request answered differently";
          }
        } else {
          try {
            why = check_response(q, p, responses[p], in.synth[q.kernel]);
          } catch (const std::exception& e) {
            why = std::string("malformed response: ") + e.what();
          }
        }
        if (p + 1 == n && !extra.empty()) why = "responses beyond one per request";
        if (!why.empty()) {
          r.op_failure[p] = request_id(p) + " (" +
                            in.synth[q.kernel].name + "): " + why;
        }
      }
    }

    if (traced) {
      std::vector<double> hits;
      std::vector<double> misses;
      std::map<std::string, std::vector<double>> by_verb;
      for (std::size_t p = 0; p < n; ++p) {
        const double ms = r.op_calls_ms[p][0];
        (hit[p] ? hits : misses).push_back(ms);
        by_verb[stream[p].verb].push_back(ms);
      }
      r.layers["serve.hit_p50_ms"] = percentile(hits, 50.0);
      r.layers["serve.miss_p50_ms"] = percentile(misses, 50.0);
      r.layers["serve.miss_p99_ms"] = percentile(misses, 99.0);
      for (const auto& [verb, ms] : by_verb) {
        r.layers["serve." + verb + "_p50_ms"] = percentile(ms, 50.0);
      }
      const auto field = [](const json::Value& c, const char* key) {
        return static_cast<double>(c.as_object().at(key).as_int());
      };
      const double probes = field(cache1, "probes") - field(cache0, "probes");
      const double computes =
          field(cache1, "computes") - field(cache0, "computes");
      r.layers["cache.probes"] = probes;
      r.layers["cache.computes"] = computes;
      r.layers["cache.hit_ratio"] = probes > 0 ? 1.0 - computes / probes : 0.0;
      r.layers["cache.evictions"] =
          static_cast<double>(evictions.value() - evictions0);
      r.layers["cache.resident_mb"] =
          field(cache1, "resident_bytes") / (1024.0 * 1024.0);

      r.layers.merge(repair_layers(repair0));
    }
    return r;
  };

  std::vector<const Source*> kernels;
  std::vector<bool> seen(in.synth.size(), false);
  for (const Request& q : stream) {
    if (!seen[q.kernel]) kernels.push_back(&in.synth[q.kernel]);
    seen[q.kernel] = true;
  }
  const ProbeFn probe = [&] {
    std::map<std::string, double> layers = probe_front_end(kernels);
    // Best of three passes over the stream's request lines.
    double best_us = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < 3; ++pass) {
      Scope span("probe.parse_request");
      const Clock::time_point t0 = Clock::now();
      for (const Request& q : stream) {
        if (!drbml::serve::parse_request(q.line).ok) {
          throw std::runtime_error("serve_stream: request does not parse");
        }
      }
      best_us = std::min(best_us, seconds_between(t0, Clock::now()) * 1e6 /
                                      static_cast<double>(stream.size()));
    }
    layers["serve.parse_request_us"] = best_us;
    return layers;
  };
  return measure(opts, rep, probe);
}

}  // namespace perfbench
