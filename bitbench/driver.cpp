// bitbench_driver: runs one workload of the repository benchmark for a fixed
// wall-clock window and prints its raw samples and counter deltas as one
// JSON object. bitbench/run.py turns that into the reported metrics.
//
//   bitbench_driver --workload <chase|probe-socket|bfs-interp|cold-deploy>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Everything is measured from outside the library: wall time around public
// calls, public counters read at phase boundaries, getrusage and the process
// CPU clock. With --trace 1 the run has an untraced phase (counters, GET
// latency, the tracing-overhead baseline) and a traced phase on a fresh
// cluster with an obs::Tracer attached, whose server-side spans are folded
// into per-kind self times (see SpanAttribution).
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "hetsim/cluster.hpp"
#include "obs/trace.hpp"
#include "workloads/workload_engine.hpp"
#include "xrdma/chaser.hpp"
#include "xrdma/pointer_table.hpp"

using namespace tc;

namespace {

constexpr std::uint64_t kChaseDepth = 16;
constexpr std::uint64_t kChaseEntriesPerShard = 4096;
constexpr std::size_t kChaseBlock = 32;  // X-RDMA block, then GET block
constexpr std::size_t kProbeKeys = 256;
constexpr std::uint64_t kProbeWindow = 8;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kWarmSeconds = 2.0;
constexpr std::size_t kTraceDrainEvery = 8;  // requests between ring drains
constexpr std::uint64_t kBfsGraphs = 8;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Usage {
  std::int64_t voluntary = 0;
  std::int64_t involuntary = 0;
  std::int64_t max_rss_kb = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {ru.ru_nvcsw, ru.ru_nivcsw, ru.ru_maxrss};
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = allowed_cpus();
  return cpus;
}

/// Moves the calling thread to the i-th allowed CPU (round robin).
void pin_to_cpu(std::size_t i) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Lets the calling thread run on every allowed CPU again.
void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : process_cpus()) CPU_SET(c, &set);
  if (!process_cpus().empty()) sched_setaffinity(0, sizeof(set), &set);
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "bitbench_driver: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T take(StatusOr<T> value, const char* what) {
  if (!value.is_ok()) die(std::string(what) + ": " + value.status().to_string());
  return std::move(value).value();
}

// --- public counters, summed over every node of a cluster --------------------

struct Counters {
  enum Field {
    kFramesFull, kFramesTruncated, kCodeBytes, kForwards, kNacks,
    kProtocolErrors, kSendRetries, kJitCompiles, kTierPromotions,
    kInterpExecutions, kInterpInstrs, kCacheHits, kCacheMisses, kShmOps,
    kShmStalls, kShmBackpressure, kSocketFrames, kSocketBytes,
    kSocketPartialWrites, kSocketBackpressure, kFieldCount
  };
  static constexpr const char* kNames[kFieldCount] = {
      "frames_full", "frames_truncated", "code_bytes", "forwards", "nacks",
      "protocol_errors", "send_retries", "jit_compiles", "tier_promotions",
      "interp_executions", "interp_instrs", "cache_hits", "cache_misses",
      "shm_ops", "shm_stalls", "shm_backpressure", "socket_frames",
      "socket_bytes", "socket_partial_writes", "socket_backpressure"};

  std::uint64_t v[kFieldCount] = {};
  std::uint64_t operator[](Field f) const { return v[f]; }

  static Counters read(hetsim::Cluster& cluster) {
    Counters c;
    for (fabric::NodeId n = 0; n < cluster.node_count(); ++n) {
      const core::Runtime& rt = cluster.runtime(n);
      const core::Runtime::Stats& s = rt.stats();
      c.v[kFramesFull] += s.frames_sent_full;
      c.v[kFramesTruncated] += s.frames_sent_truncated;
      c.v[kCodeBytes] += s.code_bytes_sent;
      c.v[kForwards] += s.forwards;
      c.v[kNacks] += s.nacks_sent + s.nacks_received;
      c.v[kProtocolErrors] += s.protocol_errors;
      c.v[kSendRetries] += s.send_retries + s.send_retries_exhausted;
      c.v[kJitCompiles] += s.jit_compiles;
      c.v[kTierPromotions] += s.tier_promotions;
      c.v[kInterpExecutions] += s.interp_executions;
      c.v[kInterpInstrs] += s.interp_instrs;
      const jit::CodeCache::Stats cs = rt.cache().stats();
      c.v[kCacheHits] += cs.hits;
      c.v[kCacheMisses] += cs.misses;
    }
    if (auto* shm = dynamic_cast<fabric::ShmTransport*>(&cluster.transport())) {
      const auto s = shm->stats();
      c.v[kShmOps] = s.ops_pushed;
      c.v[kShmStalls] = s.producer_stalls;
      c.v[kShmBackpressure] = s.backpressure_failures;
    }
    if (auto* sock =
            dynamic_cast<fabric::SocketTransport*>(&cluster.transport())) {
      const auto s = sock->stats();
      c.v[kSocketFrames] = s.frames_sent;
      c.v[kSocketBytes] = s.bytes_sent;
      c.v[kSocketPartialWrites] = s.partial_writes;
      c.v[kSocketBackpressure] = s.backpressure_rejects;
    }
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    for (int i = 0; i < kFieldCount; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }

  Counters& operator+=(const Counters& o) {
    for (int i = 0; i < kFieldCount; ++i) v[i] += o.v[i];
    return *this;
  }

  void write(std::ostream& out) const {
    out << "{";
    for (int i = 0; i < kFieldCount; ++i) {
      out << (i ? "," : "") << "\"" << kNames[i] << "\":" << v[i];
    }
    out << "}";
  }
};

// --- server-side span attribution ---------------------------------------------

/// Folds drained obs::TraceEvents into self time per span kind.
///
/// Every server-side event of one hop carries the span id of the send that
/// delivered the frame as its parent_span, so a hop is the group
/// (arrival, decode, [compile/link/load], tier_lookup, execute) sharing one
/// parent_span. Forward/reply sends are instants recorded inside the
/// execute span, parented to it; the frame they ship is the hop (or result
/// arrival) whose parent_span is the send's own span id. Per hop:
///   decode      = decode span duration
///   compile     = compile/link/portable-load span durations
///   tier_lookup = decode end -> execute start, minus compile
///   execute     = execute start -> its first send (or its end, if none)
/// and per send, forward_send / reply_send = send instant -> arrival of the
/// frame it shipped (frame build, transport push, wire, receiver pick-up).
/// On a chain (window 1, no fan-out) these pieces tile the request from the
/// first server arrival to the result arrival; with a window or fan-out they
/// overlap, so their sum can exceed the request. covered_ns is the measure
/// of their union inside the request windows, which never does. Rings are
/// drained while the servers keep running, so pieces whose partner event
/// lands in a later drain are carried over for a few drains before being
/// discarded.
class SpanAttribution {
 public:
  void add(std::vector<obs::TraceEvent> events) {
    this->events += events.size();
    for (obs::TraceEvent& e : events) pending_.push_back({e, 0});
    process();
  }

  /// A request's wall-clock window, in the transport clock (wall-clock
  /// backends only). Windows arrive in time order and never overlap.
  void add_window(std::int64_t start, std::int64_t end) {
    windows_.push_back({start, end});
  }

  double decode_ns = 0, tier_ns = 0, compile_ns = 0, execute_ns = 0;
  double forward_ns = 0, reply_ns = 0;
  double covered_ns = 0;
  std::uint64_t events = 0;     // drained
  std::uint64_t discarded = 0;  // carried over too long, never paired

 private:
  struct Pending {
    obs::TraceEvent event;
    int age = 0;
  };

  void process() {
    using obs::SpanKind;
    struct Hop {
      const obs::TraceEvent* arrival = nullptr;
      const obs::TraceEvent* decode = nullptr;
      const obs::TraceEvent* execute = nullptr;
      std::int64_t cold_ns = 0;
      std::vector<std::size_t> members;
    };
    std::unordered_map<std::uint32_t, Hop> hops;          // by parent_span
    std::unordered_map<std::uint32_t, std::int64_t> first_send;  // by exec span
    std::unordered_map<std::uint32_t, std::size_t> results;  // by parent_span
    std::vector<bool> used(pending_.size(), false);
    std::vector<std::pair<std::int64_t, std::int64_t>> pieces;

    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const obs::TraceEvent& e = pending_[i].event;
      switch (e.kind) {
        case SpanKind::kArrival:
        case SpanKind::kDecode:
        case SpanKind::kCompile:
        case SpanKind::kLink:
        case SpanKind::kPortableLoad:
        case SpanKind::kTierLookup:
        case SpanKind::kExecute: {
          Hop& hop = hops[e.parent_span];
          hop.members.push_back(i);
          if (e.kind == SpanKind::kArrival) hop.arrival = &e;
          if (e.kind == SpanKind::kDecode) hop.decode = &e;
          if (e.kind == SpanKind::kExecute) hop.execute = &e;
          if (e.kind == SpanKind::kCompile || e.kind == SpanKind::kLink ||
              e.kind == SpanKind::kPortableLoad) {
            hop.cold_ns += e.dur_ns;
          }
          break;
        }
        case SpanKind::kForwardSend:
        case SpanKind::kReplySend: {
          auto [it, fresh] = first_send.try_emplace(e.parent_span, e.ts_ns);
          if (!fresh) it->second = std::min(it->second, e.ts_ns);
          break;
        }
        case SpanKind::kResultArrival:
          results[e.parent_span] = i;
          break;
        default:
          used[i] = true;  // root sends, fault injections: nothing to pair
          break;
      }
    }

    for (auto& entry : hops) {
      const Hop& hop = entry.second;
      if (hop.arrival == nullptr || hop.decode == nullptr ||
          hop.execute == nullptr) {
        continue;
      }
      const obs::TraceEvent& exec = *hop.execute;
      auto send = first_send.find(exec.span_id);
      const std::int64_t exec_end =
          send != first_send.end() ? send->second : exec.ts_ns + exec.dur_ns;
      const std::int64_t decode_end = hop.decode->ts_ns + hop.decode->dur_ns;
      decode_ns += static_cast<double>(hop.decode->dur_ns);
      pieces.push_back({hop.decode->ts_ns, exec_end});
      compile_ns += static_cast<double>(hop.cold_ns);
      tier_ns += static_cast<double>(
          std::max<std::int64_t>(0, exec.ts_ns - decode_end - hop.cold_ns));
      execute_ns += static_cast<double>(
          std::max<std::int64_t>(0, exec_end - exec.ts_ns));
      for (std::size_t m : hop.members) used[m] = true;
    }

    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const obs::TraceEvent& e = pending_[i].event;
      if (e.kind != obs::SpanKind::kForwardSend &&
          e.kind != obs::SpanKind::kReplySend) {
        continue;
      }
      std::int64_t landed = -1;
      if (auto hop = hops.find(e.span_id);
          hop != hops.end() && hop->second.arrival != nullptr) {
        landed = hop->second.arrival->ts_ns;
      } else if (auto res = results.find(e.span_id); res != results.end()) {
        landed = pending_[res->second].event.ts_ns;
        used[res->second] = true;
      }
      if (landed < 0) continue;
      const double transit =
          static_cast<double>(std::max<std::int64_t>(0, landed - e.ts_ns));
      (e.kind == obs::SpanKind::kForwardSend ? forward_ns : reply_ns) +=
          transit;
      pieces.push_back({e.ts_ns, landed});
      used[i] = true;
    }

    cover(std::move(pieces));

    std::vector<Pending> keep;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (used[i]) continue;
      // A result arrival is paired from its send's side; one whose send
      // has not shown up yet waits like any other piece.
      if (++pending_[i].age > 3) {
        ++discarded;
        continue;
      }
      keep.push_back(pending_[i]);
    }
    pending_ = std::move(keep);
  }

  /// Adds the measure of the union of `pieces` inside the request windows.
  void cover(std::vector<std::pair<std::int64_t, std::int64_t>> pieces) {
    if (windows_.empty() || pieces.empty()) return;
    std::sort(pieces.begin(), pieces.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> merged;
    for (const auto& piece : pieces) {
      if (!merged.empty() && piece.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, piece.second);
      } else {
        merged.push_back(piece);
      }
    }
    for (const auto& [lo, hi] : merged) {
      // First window that ends after this interval starts.
      auto w = std::lower_bound(
          windows_.begin(), windows_.end(), lo,
          [](const auto& window, std::int64_t t) { return window.second <= t; });
      for (; w != windows_.end() && w->first < hi; ++w) {
        const std::int64_t overlap =
            std::min(hi, w->second) - std::max(lo, w->first);
        if (overlap > 0) covered_ns += static_cast<double>(overlap);
      }
    }
  }

  std::vector<Pending> pending_;
  std::vector<std::pair<std::int64_t, std::int64_t>> windows_;
};

// --- per-phase accumulation -----------------------------------------------------

/// One timed phase: per-request samples plus counter/rusage deltas.
struct Phase {
  // One entry per request of the workload's main kind, in issue order: wall
  // time, process CPU time spent inside it, units of work it completed.
  std::vector<std::int64_t> latency_ns;
  std::vector<std::int64_t> cpu_ns;
  std::vector<std::uint64_t> units;
  std::vector<std::int64_t> get_ns;  // chase only: GET-walk requests

  void record(std::int64_t ns, std::int64_t cpu, std::uint64_t work) {
    latency_ns.push_back(ns);
    cpu_ns.push_back(cpu);
    units.push_back(work);
  }
  std::int64_t send_call_ns = 0;         // summed send_ifunc call time
  std::int64_t wait_ns = 0;              // summed drive_until time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t voluntary_csw = 0, involuntary_csw = 0;
  Counters counters;
  // cold-deploy: per-request layer times (ms) and compile counts
  std::vector<double> create_ms, build_ms, compile_ms, parse_ms, optimize_ms,
      codegen_ms;
  std::vector<std::uint64_t> compiles;
  std::vector<std::string> violations;
  bool traced = false;
  SpanAttribution spans;
  std::uint64_t dropped_events = 0;
};

template <typename T>
void write_array(std::ostream& out, const std::vector<T>& v) {
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
  out << "]";
}

void write_phase(std::ostream& out, const Phase& p) {
  out << "{\"latency_ns\":";
  write_array(out, p.latency_ns);
  out << ",\"get_ns\":";
  write_array(out, p.get_ns);
  out << ",\"cpu_ns\":";
  write_array(out, p.cpu_ns);
  out << ",\"units\":";
  write_array(out, p.units);
  out << ",\"send_call_ns\":" << p.send_call_ns
      << ",\"wait_ns\":" << p.wait_ns << ",\"attempted\":" << p.attempted
      << ",\"failed\":" << p.failed
      << ",\"voluntary_csw\":" << p.voluntary_csw
      << ",\"involuntary_csw\":" << p.involuntary_csw << ",\"counters\":";
  p.counters.write(out);
  out << ",\"create_ms\":";
  write_array(out, p.create_ms);
  out << ",\"build_ms\":";
  write_array(out, p.build_ms);
  out << ",\"compile_ms\":";
  write_array(out, p.compile_ms);
  out << ",\"parse_ms\":";
  write_array(out, p.parse_ms);
  out << ",\"optimize_ms\":";
  write_array(out, p.optimize_ms);
  out << ",\"codegen_ms\":";
  write_array(out, p.codegen_ms);
  out << ",\"compiles\":";
  write_array(out, p.compiles);
  out << ",\"violations\":[";
  for (std::size_t i = 0; i < p.violations.size(); ++i) {
    out << (i ? "," : "") << "\"" << p.violations[i] << "\"";
  }
  out << "]";
  if (p.traced) {
    const SpanAttribution& s = p.spans;
    out << ",\"spans\":{\"decode_ns\":" << s.decode_ns
        << ",\"tier_lookup_ns\":" << s.tier_ns
        << ",\"compile_ns\":" << s.compile_ns
        << ",\"execute_ns\":" << s.execute_ns
        << ",\"forward_send_ns\":" << s.forward_ns
        << ",\"reply_send_ns\":" << s.reply_ns
        << ",\"covered_ns\":" << s.covered_ns << ",\"events\":" << s.events
        << ",\"discarded\":" << s.discarded
        << ",\"dropped_events\":" << p.dropped_events << "}";
  }
  out << "}";
}

/// Setup-time facts every workload reports.
struct SetupInfo {
  std::vector<double> setup_s;
  std::vector<double> create_ms;
  std::vector<double> build_ms;
  std::uint64_t archive_bytes = 0;
};

/// Warm-path invariants every phase must satisfy.
void check_common(Phase& p) {
  const Counters& c = p.counters;
  if (c[Counters::kProtocolErrors]) {
    p.violations.push_back("protocol errors recorded");
  }
  if (c[Counters::kNacks]) p.violations.push_back("NACKs recorded");
  if (c[Counters::kSendRetries]) {
    p.violations.push_back("send retries recorded");
  }
}

void check_warm(Phase& p) {
  if (p.counters[Counters::kJitCompiles]) {
    p.violations.push_back("JIT compiles in a warm phase");
  }
  if (p.counters[Counters::kFramesFull]) {
    p.violations.push_back("full frames in a warm phase");
  }
}

/// Bounds the phase: a request loop runs until `seconds` of wall time.
struct Deadline {
  std::int64_t end_ns;
  explicit Deadline(double seconds)
      : end_ns(wall_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool passed() const { return wall_ns() >= end_ns; }
};

/// Drains a tracer's rings into the phase's attribution.
void drain(obs::Tracer* tracer, Phase& p) {
  if (tracer != nullptr) p.spans.add(tracer->drain_all());
}

/// Lets trailing server events land, then drains once more.
void finish_trace(obs::Tracer* tracer, Phase& p) {
  if (tracer == nullptr) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  drain(tracer, p);
  p.dropped_events = tracer->total_dropped();
}

/// The shape every workload runs on: one client node, two servers.
hetsim::ClusterConfig cluster_config(hetsim::Backend backend,
                                     obs::Tracer* tracer) {
  hetsim::ClusterConfig cc;
  cc.backend = backend;
  cc.server_count = 2;
  cc.client_count = 1;
  cc.tracer = tracer;
  return cc;
}

// --- chase (shm): X-RDMA chases interleaved with GET walks ----------------------

class ChaseBench {
 public:
  explicit ChaseBench(std::uint64_t seed) : seed_(seed) {
    xrdma::PointerTableConfig tc;
    tc.entries_per_shard = kChaseEntriesPerShard;
    tc.shard_count = 2;
    tc.seed = seed ^ 0x7c3a1b5ull;
    table_ = take(xrdma::DistributedPointerTable::build(tc), "pointer table");
  }

  /// Fresh cluster, library, registration and warm-up.
  void setup(obs::Tracer* tracer, SetupInfo& info) {
    teardown();
    const std::int64_t t0 = wall_ns();
    if (tracer) tracer->set_enabled(false);
    cluster_ = take(hetsim::Cluster::create(
                        cluster_config(hetsim::Backend::kShm, tracer)),
                    "cluster create");
    const std::int64_t t1 = wall_ns();
    core::IfuncLibrary library =
        take(xrdma::build_chaser_library(ir::CodeRepr::kBitcode), "library");
    const std::int64_t t2 = wall_ns();
    info.archive_bytes = library.serialized_archive().size();
    core::Runtime& client = cluster_->client_runtime();
    ifunc_ = take(client.register_ifunc(std::move(library)), "register");
    const auto& servers = cluster_->server_nodes();
    regions_.clear();
    for (std::size_t i = 0; i < servers.size(); ++i) {
      auto& shard = table_.shard(i);
      cluster_->runtime(servers[i]).set_shard(shard.data(), shard.size());
      regions_.push_back(take(cluster_->transport().register_window(
                                  servers[i], shard.data(),
                                  shard.size() * sizeof(std::uint64_t)),
                              "register window"));
    }
    client.set_result_handler([this](ByteSpan data, fabric::NodeId) {
      auto reply = xrdma::decode_chase_reply(data);
      reply_ok_ = reply.is_ok() && !reply->tagged;
      reply_value_ = reply_ok_ ? reply->value : 0;
      replied_ = true;
    });
    // Warm-up: enough chases that both servers have compiled the chaser
    // and every sender has shipped its full frame.
    Xoshiro256 rng(seed_ ^ 0x3a3aull);
    Phase scratch;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t start = rng.below(table_.total_entries());
      xrdma_chase(start, scratch);
      get_walk(start, scratch);
    }
    for (fabric::NodeId n : servers) {
      cluster_->runtime(n).wait_for_promotions();
    }
    if (scratch.failed) die("chase warm-up produced a wrong result");
    const std::int64_t t3 = wall_ns();
    info.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    info.create_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    info.build_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }

  void run(double seconds, obs::Tracer* tracer, Phase& p) {
    Xoshiro256 rng(seed_ ^ 0x5eedull);
    const Counters c0 = Counters::read(*cluster_);
    const Usage u0 = usage();
    if (tracer) tracer->set_enabled(true);
    Deadline deadline(seconds);
    std::uint64_t starts[kChaseBlock];
    while (!deadline.passed()) {
      for (auto& s : starts) s = rng.below(table_.total_entries());
      for (std::uint64_t s : starts) {
        const std::int64_t cpu0 = cpu_ns();
        const std::int64_t ns = xrdma_chase(s, p);
        p.record(ns, cpu_ns() - cpu0, 1);
      }
      drain(tracer, p);
      for (std::uint64_t s : starts) p.get_ns.push_back(get_walk(s, p));
    }
    finish_trace(tracer, p);
    if (tracer) tracer->set_enabled(false);
    const Usage u1 = usage();
    p.counters = Counters::read(*cluster_) - c0;
    p.voluntary_csw = u1.voluntary - u0.voluntary;
    p.involuntary_csw = u1.involuntary - u0.involuntary;
    check_common(p);
    check_warm(p);
  }

  void teardown() {
    if (cluster_) cluster_->client_runtime().set_result_handler({});
    cluster_.reset();
  }

  ~ChaseBench() { teardown(); }

 private:
  /// One X-RDMA chase: send_ifunc, then drive_until the reply lands.
  std::int64_t xrdma_chase(std::uint64_t start, Phase& p) {
    const fabric::NodeId dst =
        cluster_->server_nodes()[table_.owner_of(start)];
    const Bytes payload =
        xrdma::encode_chase_payload({start, kChaseDepth});
    replied_ = false;
    ++p.attempted;
    const std::int64_t t0 = wall_ns();
    Status sent = cluster_->client_runtime().send_ifunc(dst, ifunc_,
                                                        as_span(payload));
    const std::int64_t t1 = wall_ns();
    Status done = sent.is_ok()
                      ? cluster_->drive_until(cluster_->client_node(),
                                              [this] { return replied_; })
                      : sent;
    const std::int64_t t2 = wall_ns();
    p.send_call_ns += t1 - t0;
    p.wait_ns += t2 - t1;
    if (p.traced) p.spans.add_window(t0, t2);
    if (!done.is_ok() || !reply_ok_ ||
        reply_value_ != table_.chase_expected(start, kChaseDepth)) {
      ++p.failed;
    }
    return t2 - t0;
  }

  /// One GET walk: depth one-sided reads, each driven to completion.
  std::int64_t get_walk(std::uint64_t start, Phase& p) {
    ++p.attempted;
    const fabric::NodeId client = cluster_->client_node();
    std::uint64_t address = start;
    std::uint64_t value = 0;
    bool ok = true;
    const std::int64_t t0 = wall_ns();
    for (std::uint64_t d = 0; d < kChaseDepth && ok; ++d) {
      const std::uint64_t owner = table_.owner_of(address);
      fabric::RemoteAddr remote{cluster_->server_nodes()[owner],
                                regions_[owner].rkey,
                                table_.slot_of(address) * sizeof(std::uint64_t)};
      bool landed = false;
      cluster_->transport().post_get(
          client, remote, sizeof(std::uint64_t),
          [&](StatusOr<Bytes> data) {
            landed = true;
            if (!data.is_ok() || data->size() != sizeof(std::uint64_t)) {
              ok = false;
              return;
            }
            std::memcpy(&value, data->data(), sizeof(value));
          });
      // The completion captures this frame's locals, so a GET that never
      // completes ends the run rather than outliving them.
      if (!cluster_->drive_until(client, [&] { return landed; }).is_ok()) {
        die("GET walk: a one-sided read never completed");
      }
      address = value;
    }
    const std::int64_t t1 = wall_ns();
    if (!ok || value != table_.chase_expected(start, kChaseDepth)) ++p.failed;
    return t1 - t0;
  }

  std::uint64_t seed_;
  xrdma::DistributedPointerTable table_;
  std::unique_ptr<hetsim::Cluster> cluster_;
  std::vector<fabric::MemRegion> regions_;
  std::uint64_t ifunc_ = 0;
  bool replied_ = false;
  bool reply_ok_ = false;
  std::uint64_t reply_value_ = 0;
};

// --- probe-socket / bfs-interp: WorkloadEngine requests ------------------------

class EngineBench {
 public:
  EngineBench(std::uint64_t seed, workloads::Workload workload,
              hetsim::Backend backend, workloads::WorkloadMode mode,
              std::uint64_t window)
      : seed_(seed), workload_(workload), backend_(backend), mode_(mode),
        window_(window) {}

  /// Fresh cluster and engine over data structure `instance` (0 for every
  /// set-up the driver times).
  void setup(obs::Tracer* tracer, SetupInfo& info, std::uint64_t instance = 0) {
    teardown();
    const std::uint64_t seed = seed_ ^ (0x9E3779B97F4A7C15ull * instance);
    const std::int64_t t0 = wall_ns();
    if (tracer) tracer->set_enabled(false);
    cluster_ = take(hetsim::Cluster::create(cluster_config(backend_, tracer)),
                    "cluster create");
    const std::int64_t t1 = wall_ns();
    workloads::WorkloadConfig wc;
    wc.workload = workload_;
    wc.mode = mode_;
    wc.window = window_;
    wc.seed = seed ^ 0xD57ull;
    const Counters c0 = Counters::read(*cluster_);
    engine_ = take(workloads::WorkloadEngine::create(*cluster_, wc),
                   "workload engine");
    const std::int64_t t2 = wall_ns();
    if (workload_ == workloads::Workload::kBfs) {
      sources_.clear();
      Xoshiro256 rng(seed ^ 0xBF5ull);
      for (int i = 0; i < 256; ++i) {
        sources_.push_back(rng.below(engine_->universe()));
      }
    } else {
      keys_ = engine_->sample_queries(0, kProbeKeys * 64);
      key_rng_ = Xoshiro256(seed ^ 0x9e7ull);
    }
    // Warm until every sender has shipped its full frame. A hash probe
    // crosses servers on about one request in four per direction, so 128
    // requests leave a forward edge unshipped with odds below 1e-12; the
    // timed phase checks that no full frame follows.
    Phase scratch;
    const std::size_t warm_requests =
        workload_ == workloads::Workload::kBfs ? 16 : 128;
    for (std::size_t i = 0; i < warm_requests; ++i) request(i, scratch);
    if (scratch.failed) die("warm-up produced a wrong result");
    const Counters warm = Counters::read(*cluster_) - c0;
    const std::uint64_t full = warm[Counters::kFramesFull];
    info.archive_bytes = full ? warm[Counters::kCodeBytes] / full : 0;
    const std::int64_t t3 = wall_ns();
    info.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    info.create_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    info.build_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }

  /// BFS cost depends on the graph's shape, and the default graph is small
  /// (2x64 vertices), so one graph per run would make the seed move the
  /// result by ~10%. The BFS phase therefore walks kBfsGraphs graphs in
  /// turn, each on a fresh cluster; the phase starts on the set-up one.
  void run(double seconds, obs::Tracer* tracer, Phase& p) {
    const std::uint64_t instances =
        workload_ == workloads::Workload::kBfs ? kBfsGraphs : 1;
    for (std::uint64_t instance = 0; instance < instances; ++instance) {
      if (instance > 0) {
        SetupInfo ignored;
        setup(tracer, ignored, instance);
      }
      run_instance(seconds / static_cast<double>(instances), tracer, p);
    }
    check_common(p);
    check_warm(p);
    if (workload_ == workloads::Workload::kBfs) {
      if (p.counters[Counters::kInterpExecutions] == 0) {
        p.violations.push_back("no interpreter executions");
      }
      if (p.counters[Counters::kTierPromotions]) {
        p.violations.push_back("interpreter tier was promoted");
      }
    }
  }

  void teardown() {
    engine_.reset();
    cluster_.reset();
  }

  ~EngineBench() { teardown(); }

 private:
  struct Sample {
    std::int64_t ns = 0;
    std::uint64_t units = 0;  // vertices visited, or lookups answered
  };

  /// Requests on the current cluster until `seconds` pass; counters and
  /// context switches accumulate into `p`.
  void run_instance(double seconds, obs::Tracer* tracer, Phase& p) {
    const Counters c0 = Counters::read(*cluster_);
    const Usage u0 = usage();
    if (tracer) tracer->set_enabled(true);
    Deadline deadline(seconds);
    for (std::size_t i = 0; !deadline.passed(); ++i) {
      const std::int64_t cpu0 = cpu_ns();
      const Sample sample = request(i, p);
      p.record(sample.ns, cpu_ns() - cpu0, sample.units);
      if ((i + 1) % kTraceDrainEvery == 0) drain(tracer, p);
    }
    finish_trace(tracer, p);
    if (tracer) tracer->set_enabled(false);
    const Usage u1 = usage();
    p.counters += Counters::read(*cluster_) - c0;
    p.voluntary_csw += u1.voluntary - u0.voluntary;
    p.involuntary_csw += u1.involuntary - u0.involuntary;
  }

  /// One request: run_lookups over 256 keys, or one run_bfs.
  Sample request(std::size_t i, Phase& p) {
    ++p.attempted;
    if (workload_ == workloads::Workload::kBfs) {
      const std::uint64_t source = sources_[i % sources_.size()];
      const std::int64_t t0 = wall_ns();
      auto result = engine_->run_bfs(source);
      const std::int64_t t1 = wall_ns();
      if (p.traced) p.spans.add_window(t0, t1);
      const bool ok = result.is_ok() && result->values.size() == 1 &&
                      result->values[0] == engine_->expected_bfs(source);
      if (!ok) ++p.failed;
      return {t1 - t0, result.is_ok() ? result->hits : 0};
    }
    // Fresh draws from the query pool, so every request mixes hits, misses
    // and server crossings in the same proportions.
    std::vector<std::uint64_t> keys(kProbeKeys);
    for (std::uint64_t& key : keys) key = keys_[key_rng_.below(keys_.size())];
    const std::int64_t t0 = wall_ns();
    auto result = engine_->run_lookups(keys);
    const std::int64_t t1 = wall_ns();
    if (p.traced) p.spans.add_window(t0, t1);
    bool ok = result.is_ok() && result->values.size() == keys.size();
    for (std::size_t k = 0; ok && k < keys.size(); ++k) {
      ok = result->values[k] == engine_->expected_lookup(keys[k]);
    }
    if (!ok) ++p.failed;
    return {t1 - t0, result.is_ok() ? result->completed : 0};
  }

  std::uint64_t seed_;
  workloads::Workload workload_;
  hetsim::Backend backend_;
  workloads::WorkloadMode mode_;
  std::uint64_t window_;
  std::unique_ptr<hetsim::Cluster> cluster_;
  std::unique_ptr<workloads::WorkloadEngine> engine_;
  std::vector<std::uint64_t> keys_;
  Xoshiro256 key_rng_{0};
  std::vector<std::uint64_t> sources_;
};

// --- cold-deploy (sim): fresh cluster + library + first chase per request ------

class ColdDeployBench {
 public:
  explicit ColdDeployBench(std::uint64_t seed) : seed_(seed) {}

  /// Builds the pointer table and pays process-wide first-use costs with
  /// one untimed request.
  void setup(obs::Tracer* tracer, SetupInfo& info) {
    (void)tracer;
    const std::int64_t t0 = wall_ns();
    xrdma::PointerTableConfig tc;
    tc.entries_per_shard = kChaseEntriesPerShard;
    tc.shard_count = 2;
    tc.seed = seed_ ^ 0x7c3a1b5ull;
    table_ = take(xrdma::DistributedPointerTable::build(tc), "pointer table");
    Phase scratch;
    Xoshiro256 rng(seed_ ^ 0x3a3aull);
    request(rng.below(table_.total_entries()), nullptr, scratch);
    if (scratch.failed) die("cold-deploy warm-up produced a wrong result");
    const std::int64_t t1 = wall_ns();
    info.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    info.create_ms.push_back(scratch.create_ms.front());
    info.build_ms.push_back(scratch.build_ms.front());
    info.archive_bytes = archive_bytes_;
  }

  void run(double seconds, obs::Tracer* tracer, Phase& p) {
    Xoshiro256 rng(seed_ ^ 0x5eedull);
    const Usage u0 = usage();
    Deadline deadline(seconds);
    for (std::size_t i = 0; !deadline.passed(); ++i) {
      // The simulated request is single-threaded, so it runs at the speed
      // of whichever CPU it lands on, and on a shared host those differ by
      // up to 2x. Visiting every CPU in turn makes a run sample them all.
      pin_to_cpu(i);
      const std::int64_t cpu0 = cpu_ns();
      const std::int64_t ns =
          request(rng.below(table_.total_entries()), tracer, p);
      p.record(ns, cpu_ns() - cpu0, 1);
    }
    unpin();
    const Usage u1 = usage();
    p.voluntary_csw = u1.voluntary - u0.voluntary;
    p.involuntary_csw = u1.involuntary - u0.involuntary;
    if (tracer) p.dropped_events = tracer->total_dropped();
    check_common(p);
    for (std::uint64_t c : p.compiles) {
      if (c == 0) {
        p.violations.push_back("a cold-deploy request did not compile");
        break;
      }
    }
  }

  void teardown() {}

 private:
  std::int64_t request(std::uint64_t start, obs::Tracer* tracer, Phase& p) {
    ++p.attempted;
    const std::int64_t t0 = wall_ns();
    auto cluster = take(hetsim::Cluster::create(
                            cluster_config(hetsim::Backend::kSim, tracer)),
                        "cluster create");
    const std::int64_t t1 = wall_ns();
    core::IfuncLibrary library =
        take(xrdma::build_chaser_library(ir::CodeRepr::kBitcode), "library");
    const std::int64_t t2 = wall_ns();
    archive_bytes_ = library.serialized_archive().size();
    core::Runtime& client = cluster->client_runtime();
    const std::uint64_t ifunc =
        take(client.register_ifunc(std::move(library)), "register");
    const auto& servers = cluster->server_nodes();
    for (std::size_t i = 0; i < servers.size(); ++i) {
      auto& shard = table_.shard(i);
      cluster->runtime(servers[i]).set_shard(shard.data(), shard.size());
    }
    bool replied = false;
    bool reply_ok = false;
    std::uint64_t value = 0;
    client.set_result_handler([&](ByteSpan data, fabric::NodeId) {
      auto reply = xrdma::decode_chase_reply(data);
      reply_ok = reply.is_ok() && !reply->tagged;
      value = reply_ok ? reply->value : 0;
      replied = true;
    });
    const Counters c0 = Counters::read(*cluster);
    const Bytes payload = xrdma::encode_chase_payload({start, kChaseDepth});
    const std::int64_t t3 = wall_ns();
    Status sent = client.send_ifunc(
        servers[table_.owner_of(start)], ifunc, as_span(payload));
    const std::int64_t t4 = wall_ns();
    Status done = sent.is_ok()
                      ? cluster->drive_until(cluster->client_node(),
                                             [&] { return replied; })
                      : sent;
    const std::int64_t t5 = wall_ns();
    if (!done.is_ok() || !reply_ok ||
        value != table_.chase_expected(start, kChaseDepth)) {
      ++p.failed;
    }
    const Counters c = Counters::read(*cluster) - c0;
    p.counters += c;
    p.send_call_ns += t4 - t3;
    p.wait_ns += t5 - t4;
    p.create_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    p.build_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    p.compiles.push_back(c[Counters::kJitCompiles]);
    double parse = 0, optimize = 0, codegen = 0;
    for (fabric::NodeId n : servers) {
      const core::Runtime& rt = cluster->runtime(n);
      if (rt.stats().jit_compiles == 0) continue;
      const jit::CompileStats& cs = rt.last_compile_stats();
      parse += static_cast<double>(cs.parse_ns) / 1e6;
      optimize += static_cast<double>(cs.optimize_ns) / 1e6;
      codegen += static_cast<double>(cs.compile_ns) / 1e6;
    }
    p.parse_ms.push_back(parse);
    p.optimize_ms.push_back(optimize);
    p.codegen_ms.push_back(codegen);
    p.compile_ms.push_back(parse + optimize + codegen);
    client.set_result_handler({});
    cluster.reset();
    if (tracer) {
      // The simulated cluster is single-threaded and now gone: its rings
      // hold exactly this request's events.
      p.spans.add(tracer->drain_all());
    }
    return t5 - t0;
  }

  std::uint64_t seed_;
  xrdma::DistributedPointerTable table_;
  std::uint64_t archive_bytes_ = 0;
};

// --- driver ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      die("unknown argument " + key);
    }
  }
  if (a.seconds <= 0) die("--seconds must be positive");
  return a;
}

/// Runs the setup repeats, the timed phase(s), and prints the JSON record.
template <typename Bench>
int drive(Bench& bench, const Args& args) {
  // An untimed warm-up first: on a host that has been idle, the first
  // second or so of spinning progress threads runs with their CPUs still
  // coming out of idle (many involuntary context switches, ~2x latency).
  SetupInfo warm_info;
  bench.setup(nullptr, warm_info);
  Phase warm;
  bench.run(kWarmSeconds, nullptr, warm);
  if (warm.failed != 0 || !warm.violations.empty()) {
    std::string why = std::to_string(warm.failed) + " wrong answers";
    for (const std::string& v : warm.violations) why += "; " + v;
    die("warm-up phase: " + why);
  }
  SetupInfo info;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) bench.setup(nullptr, info);
  // Read before the timed phase: its sample buffers grow with throughput,
  // which would make the high-water mark follow the host's speed.
  const Usage u = usage();
  Phase untraced;
  Phase traced;
  traced.traced = true;
  if (!args.trace) {
    bench.run(args.seconds, nullptr, untraced);
  } else {
    bench.run(args.seconds / 2, nullptr, untraced);
    // The traced phase runs on a fresh cluster built with a tracer; the
    // rings are sized so a drain interval never overflows them.
    obs::Tracer tracer(0, 1 << 18);
    SetupInfo traced_info;
    bench.setup(&tracer, traced_info);
    bench.run(args.seconds / 2, &tracer, traced);
    bench.teardown();
  }
  bench.teardown();

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"setup_s\":";
  write_array(out, info.setup_s);
  out << ",\"cluster_create_ms\":";
  write_array(out, info.create_ms);
  out << ",\"library_build_ms\":";
  write_array(out, info.build_ms);
  out << ",\"archive_bytes\":" << info.archive_bytes
      << ",\"peak_rss_kb\":" << u.max_rss_kb << ",\"untraced\":";
  write_phase(out, untraced);
  if (args.trace) {
    out << ",\"traced\":";
    write_phase(out, traced);
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.workload == "chase") {
    ChaseBench bench(args.seed);
    return drive(bench, args);
  }
  if (args.workload == "probe-socket") {
    EngineBench bench(args.seed, workloads::Workload::kHashProbe,
                      hetsim::Backend::kSocket,
                      workloads::WorkloadMode::kBitcode, kProbeWindow);
    return drive(bench, args);
  }
  if (args.workload == "bfs-interp") {
    EngineBench bench(args.seed, workloads::Workload::kBfs,
                      hetsim::Backend::kShm,
                      workloads::WorkloadMode::kPortable, 4);
    return drive(bench, args);
  }
  if (args.workload == "cold-deploy") {
    ColdDeployBench bench(args.seed);
    return drive(bench, args);
  }
  die("unknown workload '" + args.workload + "'");
}
