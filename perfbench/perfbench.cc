// The repository benchmark program. Runs one workload on the default
// protocol configuration for a host-time budget, checks every output, and
// prints its metrics by name and unit. run.py builds and calls it; README.md
// lists the workloads, the metrics, and what is not measured.
//
//   perfbench --workload bt|kmn|scan --seed N --seconds S
//                    --trace 0|1 [--trace-out FILE]
//
// Standard output: one line per metric, one "REP {...}" line per
// repetition (so a caller that kills a hung run can still count what was
// attempted), and a final "RESULT {...}" line.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.h"
#include "common/rand.h"
#include "common/time_gate.h"
#include "core/api.h"

namespace {

using namespace dex;
using Counts = std::map<std::string, double>;

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

/// CPU seconds used so far by every thread of this process.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double host_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit.

struct Span {
  const char* name = "";
  int id = 0;
  int parent = -1;  // -1: root
  int run = 0;      // repetition index (-1: warm-up, -2: probes)
  int tid = 0;      // 0: main thread, 1..: simulated application thread
  double start_us = 0;
  double end_us = 0;
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Per-access spans are kept for the first traced repetition only: they
  /// are most of the trace, and later repetitions add samples, not shape.
  bool fine() const { return enabled_ && fine_; }
  void set_fine(bool on) { fine_ = on; }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  void add_all(const std::vector<Span>& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\":{\"workload\":\"%s\",\"seed\":%llu},\n",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    std::fprintf(f, "\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                   "\"parent\":%d,\"run\":%d}}%s\n",
                   s.name, s.tid, s.start_us, s.end_us - s.start_us, s.id,
                   s.parent, s.run, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  bool fine_ = true;
  std::atomic<int> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span around one of the benchmark's own calls; a no-op while the log is
/// disabled. Worker threads pass a private `sink` that the main thread
/// merges after joining them.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent, int run, int tid = 0,
             std::vector<Span>* sink = nullptr)
      : log_(log), sink_(sink) {
    if (!log.enabled()) return;
    span_.name = name;
    span_.id = log.next_id();
    span_.parent = parent;
    span_.run = run;
    span_.tid = tid;
    span_.start_us = host_us();
  }
  ~ScopedSpan() {
    if (!log_.enabled()) return;
    span_.end_us = host_us();
    if (sink_ != nullptr) {
      sink_->push_back(span_);
    } else {
      log_.add(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return span_.id; }

 private:
  SpanLog& log_;
  std::vector<Span>* sink_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Exact statistics over the benchmark's own samples.

/// Nearest-rank quantile; sorts `v`. 0 for no samples.
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

/// A p99 is reported only when at least ten samples lie beyond it.
bool p99_reportable(std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  return n >= rank + 10;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Layer counters, read through the public accessors.

Counts read_dsm(core::Process& process) {
  mem::Dsm& dsm = process.dsm();
  mem::DsmStats& s = dsm.stats();
  Counts c;
  c["faults"] = static_cast<double>(s.total_faults());
  c["remote_faults"] = static_cast<double>(s.remote_faults.load());
  c["invalidations"] = static_cast<double>(s.invalidations.load());
  c["writebacks"] = static_cast<double>(s.writebacks.load());
  c["retries"] = static_cast<double>(s.retries.load());
  c["home_hint_hits"] = static_cast<double>(s.home_hint_hits.load());
  c["home_chases"] = static_cast<double>(s.home_chases.load());
  c["forwarded_grants"] = static_cast<double>(s.forwarded_grants.load());
  c["prefetch_issued"] = static_cast<double>(s.prefetch_issued.load());
  c["prefetch_hits"] = static_cast<double>(s.prefetch_hits.load());
  c["prefetch_wasted"] = static_cast<double>(s.prefetch_wasted.load());
  c["grants_data"] = static_cast<double>(s.grants_data.load());
  c["grants_ownership_only"] =
      static_cast<double>(s.grants_ownership_only.load());
  c["revoke_failures"] = static_cast<double>(s.revoke_failures.load());
  c["latch_restarts"] = static_cast<double>(s.latch_restarts.load());
  c["fault_table_contention"] =
      static_cast<double>(s.fault_table_contention.load());
  c["dir_lock_contention"] =
      static_cast<double>(dsm.directory().lock_contention());
  c["delegations"] = static_cast<double>(process.delegation_count());
  double coalesced = 0;
  for (NodeId n = 0; n < process.cluster().num_nodes(); ++n) {
    coalesced += static_cast<double>(dsm.fault_table(n).coalesced_count());
  }
  c["coalesced"] = coalesced;
  const auto count = static_cast<double>(s.fault_latency.count());
  c["fault_count"] = count;
  c["fault_sum_ns"] = s.fault_latency.mean() * count;
  c["frame_high_water"] = static_cast<double>(dsm.frame_high_water_bytes());
  return c;
}

Counts read_net(net::Fabric& fabric) {
  Counts c;
  c["messages"] = static_cast<double>(fabric.total_messages());
  c["bytes"] = static_cast<double>(fabric.total_bytes());
  c["rdma_ops"] = static_cast<double>(fabric.total_rdma_ops());
  c["fanout_legs"] = static_cast<double>(fabric.fanout_legs());
  c["pool_stalls"] = static_cast<double>(fabric.pool_stalls());
  c["rpc_retries"] = static_cast<double>(fabric.rpc_retries());
  c["rpc_timeouts"] = static_cast<double>(fabric.rpc_timeouts());
  return c;
}

/// `after - before` per counter; the frame high-water gauge keeps `after`.
Counts diff(const Counts& after, const Counts& before) {
  Counts d = after;
  for (auto& [name, value] : d) {
    const auto it = before.find(name);
    if (name != "frame_high_water" && it != before.end()) value -= it->second;
  }
  return d;
}

void merge(Counts& into, const Counts& from) {
  into.insert(from.begin(), from.end());
}

/// Per-layer metrics of one repetition from its counter diff.
std::map<std::string, double> layer_metrics(const Counts& c) {
  auto at = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> m;
  m["mem.remote_faults"] = at("remote_faults");
  m["mem.invalidations"] = at("invalidations");
  m["mem.writebacks"] = at("writebacks");
  m["mem.retries"] = at("retries");
  m["mem.coalesced_ratio"] = ratio(at("coalesced"), at("faults"));
  m["mem.home_hint_hits"] = at("home_hint_hits");
  m["mem.home_chases"] = at("home_chases");
  m["mem.forwarded_grants"] = at("forwarded_grants");
  m["mem.fault_virt_us_mean"] =
      ratio(at("fault_sum_ns"), at("fault_count")) / 1e3;
  m["mem.prefetch_hit_ratio"] =
      ratio(at("prefetch_hits"), at("prefetch_issued"));
  m["mem.prefetch_wasted"] = at("prefetch_wasted");
  m["mem.ownership_only_ratio"] =
      ratio(at("grants_ownership_only"),
            at("grants_data") + at("grants_ownership_only"));
  m["mem.dir_lock_contention"] = at("dir_lock_contention");
  m["mem.latch_restarts"] = at("latch_restarts");
  m["mem.fault_table_contention"] = at("fault_table_contention");
  m["mem.frame_high_water_mb"] = at("frame_high_water") / (1024.0 * 1024.0);
  m["mem.revoke_failures"] = at("revoke_failures");
  m["net.messages"] = at("messages");
  m["net.bytes"] = at("bytes");
  m["net.fanout_legs"] = at("fanout_legs");
  m["net.pool_stalls"] = at("pool_stalls");
  m["net.rdma_ops"] = at("rdma_ops");
  m["net.bytes_per_remote_fault"] = ratio(at("bytes"), at("remote_faults"));
  m["net.rpc_retries"] = at("rpc_retries");
  m["net.rpc_timeouts"] = at("rpc_timeouts");
  m["core.delegations"] = at("delegations");
  return m;
}

// ---------------------------------------------------------------------------
// One repetition of a workload.

struct Rep {
  double host_s = 0;  // wall seconds of the timed call
  double cpu_s = 0;   // CPU seconds of every thread during the timed call
  double virt_ms = 0;
  double setup_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool traced = false;
  Counts counts;
  std::vector<double> fault_virt_ns;   // scan: accesses that faulted
  std::vector<double> access_host_ns;  // scan, traced repetitions only
};

/// Counters of the application process, captured by the snapshot wrapper
/// below while App::run still holds the process.
std::optional<Counts> g_app_counts;

/// bt and kmn: a fresh cluster per repetition, then one App::run.
Rep run_app_rep(apps::App& app, const apps::RunConfig& config, SpanLog& spans,
                int run) {
  Rep rep;
  ScopedSpan rep_span(spans, "rep", -1, run);
  const double t0 = host_us();
  std::unique_ptr<core::Cluster> cluster;
  {
    ScopedSpan span(spans, "cluster_bringup", rep_span.id(), run);
    core::ClusterConfig cluster_config;
    cluster_config.num_nodes = config.nodes;
    cluster = std::make_unique<core::Cluster>(cluster_config);
  }
  // App::run creates its process internally; this one times the same
  // create_process path as part of set-up and is gone before the run.
  std::unique_ptr<core::Process> process;
  {
    ScopedSpan span(spans, "create_process", rep_span.id(), run);
    process = cluster->create_process(core::ProcessOptions{});
  }
  rep.setup_s = (host_us() - t0) / 1e6;
  process.reset();

  const Counts net_before = read_net(cluster->fabric());
  g_app_counts.reset();
  apps::RunResult result;
  bool ok = true;
  const double c0 = cpu_s();
  const double h0 = host_us();
  {
    ScopedSpan span(spans, "app_run", rep_span.id(), run);
    try {
      result = app.run(*cluster, config);
    } catch (const std::exception& error) {
      std::printf("error: %s run %d threw: %s\n", app.name().c_str(), run,
                  error.what());
      ok = false;
    }
  }
  rep.host_s = (host_us() - h0) / 1e6;
  rep.cpu_s = cpu_s() - c0;
  rep.virt_ms = static_cast<double>(result.elapsed_ns) / 1e6;
  if (ok && !result.verified) {
    std::printf("error: %s run %d failed its reference check\n",
                app.name().c_str(), run);
  }
  rep.attempted = 1;
  rep.failed = ok && result.verified ? 0 : 1;
  if (g_app_counts) rep.counts = *g_app_counts;
  merge(rep.counts, diff(read_net(cluster->fabric()), net_before));
  return rep;
}

// scan: four application threads on nodes 1 and 2 each read their own cold
// slice of pages homed at the origin, page by page, then write one word in
// a seeded one page of every eight of the slice. Default ProcessOptions.
constexpr int kScanNodes = 3;
constexpr int kScanThreads = 4;
constexpr std::uint64_t kScanPagesPerThread = 4000;
constexpr std::uint64_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);
constexpr std::uint64_t kScanPages = kScanThreads * kScanPagesPerThread;

struct ScanWrite {
  std::uint64_t page = 0;
  std::uint64_t word = 0;
  std::uint64_t value = 0;
};

struct ScanInput {
  std::vector<std::uint64_t> words;  // initial contents, kScanPages pages
  std::vector<ScanWrite> writes;     // in page order: one per eight pages
};

ScanInput make_scan_input(std::uint64_t seed) {
  ScanInput input;
  Xoshiro256 rng(seed);
  input.words.resize(kScanPages * kWordsPerPage);
  for (auto& w : input.words) w = rng.next();
  for (std::uint64_t group = 0; group < kScanPages / 8; ++group) {
    ScanWrite w;
    w.page = group * 8 + rng.next() % 8;
    w.word = rng.next() % kWordsPerPage;
    // Differs from the initial word, so a lost write is visible.
    w.value = input.words[w.page * kWordsPerPage + w.word] ^ (rng.next() | 1);
    input.writes.push_back(w);
  }
  return input;
}

/// Whether `node` can access `addr` without entering the fault path.
bool resident(mem::PageTable& table, GAddr addr, bool write) {
  mem::Pte* pte = table.find(page_base(addr));
  if (pte == nullptr) return false;
  const mem::PageState state = pte->state.load(std::memory_order_acquire);
  return write ? state == mem::PageState::kExclusive
               : state != mem::PageState::kInvalid;
}

struct ScanThreadOut {
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::string error;
  std::vector<double> fault_virt_ns;
  std::vector<double> access_host_ns;
  std::vector<Span> spans;
};

Rep run_scan_rep(const ScanInput& input, SpanLog& spans, int run) {
  Rep rep;
  ScopedSpan rep_span(spans, "rep", -1, run);
  const double t0 = host_us();
  std::unique_ptr<core::Cluster> cluster;
  {
    ScopedSpan span(spans, "cluster_bringup", rep_span.id(), run);
    core::ClusterConfig cluster_config;
    cluster_config.num_nodes = kScanNodes;
    cluster = std::make_unique<core::Cluster>(cluster_config);
  }
  std::unique_ptr<core::Process> process;
  {
    ScopedSpan span(spans, "create_process", rep_span.id(), run);
    process = cluster->create_process(core::ProcessOptions{});
  }
  GAddr base = kNullGAddr;
  {
    ScopedSpan span(spans, "mmap", rep_span.id(), run);
    base = process->mmap(kScanPages * kPageSize, kProtReadWrite, "scan:data");
    DEX_CHECK(base != kNullGAddr);
  }
  {
    ScopedSpan span(spans, "populate", rep_span.id(), run);
    process->write(base, input.words.data(), kScanPages * kPageSize);
  }
  rep.setup_s = (host_us() - t0) / 1e6;

  Counts before = read_dsm(*process);
  merge(before, read_net(cluster->fabric()));
  std::array<ScanThreadOut, kScanThreads> outs;
  const bool traced = spans.enabled();
  const bool fine = spans.fine();
  const std::uint64_t writes_per_thread = input.writes.size() / kScanThreads;
  const double c0 = cpu_s();
  const double h0 = host_us();
  const VirtNs v0 = dex::now();
  {
    ScopedSpan loop_span(spans, "access_loop", rep_span.id(), run);
    const int loop_id = loop_span.id();
    // No time gate (the apps' RunConfig::pacing): the threads share no data,
    // so coupling their clocks would only add host wake-ups, and on a VM
    // those swamp the fault path in host_s.
    std::vector<DexThread> threads;
    for (int t = 0; t < kScanThreads; ++t) {
      threads.push_back(process->spawn([&, t] {
        ScanThreadOut& out = outs[static_cast<std::size_t>(t)];
        const auto node = static_cast<NodeId>(1 + t / 2);
        const int tid = t + 1;
        auto timed = [&](const char* name, bool write, GAddr addr,
                         auto&& access) {
          const bool hit = resident(process->dsm().page_table(node), addr,
                                    write);
          std::optional<ScopedSpan> span;
          if (fine) span.emplace(spans, name, loop_id, run, tid, &out.spans);
          const double a0 = traced ? host_us() : 0;
          const VirtNs start = dex::now();
          access();
          const VirtNs end = dex::now();
          if (traced) out.access_host_ns.push_back((host_us() - a0) * 1e3);
          if (!hit) out.fault_virt_ns.push_back(static_cast<double>(end - start));
          ++out.done;
        };
        try {
          {
            ScopedSpan span(spans, "migrate", loop_id, run, tid, &out.spans);
            process->migrate(node);
          }
          std::vector<std::uint64_t> page(kWordsPerPage);
          const std::uint64_t first = static_cast<std::uint64_t>(t) *
                                      kScanPagesPerThread;
          for (std::uint64_t p = first; p < first + kScanPagesPerThread; ++p) {
            const GAddr addr = base + p * kPageSize;
            timed("read", false, addr,
                  [&] { process->read(addr, page.data(), kPageSize); });
            if (std::memcmp(page.data(), &input.words[p * kWordsPerPage],
                            kPageSize) != 0) {
              ++out.failed;
            }
          }
          for (std::uint64_t i = 0; i < writes_per_thread; ++i) {
            const ScanWrite& w =
                input.writes[static_cast<std::uint64_t>(t) * writes_per_thread +
                             i];
            const GAddr addr = base + w.page * kPageSize + w.word * 8;
            timed("write", true, addr,
                  [&] { process->store<std::uint64_t>(addr, w.value); });
          }
          ScopedSpan span(spans, "migrate_back", loop_id, run, tid,
                          &out.spans);
          process->migrate_back();
        } catch (const std::exception& error) {
          out.error = error.what();
        }
      }));
    }
    for (auto& thread : threads) thread.join();
  }
  rep.virt_ms = static_cast<double>(dex::now() - v0) / 1e6;
  rep.host_s = (host_us() - h0) / 1e6;
  rep.cpu_s = cpu_s() - c0;
  Counts after = read_dsm(*process);
  merge(after, read_net(cluster->fabric()));
  rep.counts = diff(after, before);

  const std::uint64_t ops_per_thread = kScanPagesPerThread + writes_per_thread;
  for (int t = 0; t < kScanThreads; ++t) {
    ScanThreadOut& out = outs[static_cast<std::size_t>(t)];
    if (!out.error.empty()) {
      std::printf("error: scan thread %d threw: %s\n", t, out.error.c_str());
    }
    rep.attempted += ops_per_thread;
    rep.failed += out.failed + (ops_per_thread - out.done);
    rep.fault_virt_ns.insert(rep.fault_virt_ns.end(),
                             out.fault_virt_ns.begin(),
                             out.fault_virt_ns.end());
    rep.access_host_ns.insert(rep.access_host_ns.end(),
                              out.access_host_ns.begin(),
                              out.access_host_ns.end());
    spans.add_all(out.spans);
  }
  // Every written word must be what the origin reads back afterwards.
  for (const ScanWrite& w : input.writes) {
    const GAddr addr = base + w.page * kPageSize + w.word * 8;
    if (process->load<std::uint64_t>(addr) != w.value) ++rep.failed;
  }
  if (rep.failed > 0) {
    std::printf("error: scan run %d: %llu of %llu accesses failed\n", run,
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Layer microprobes (traced runs): host ns per call at fixed call counts,
// median of five batches, and the migration latencies of Table II.

/// Keeps probe results observable so the loops are not optimised away.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_call(int calls, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const double start = host_us();
    for (int i = 0; i < calls; ++i) fn(i);
    batches.push_back((host_us() - start) * 1e3 / calls);
  }
  return median(batches);
}

std::map<std::string, double> run_probes(SpanLog& spans, bool& ok) {
  std::map<std::string, double> m;
  constexpr int kRun = -2;

  {  // Fabric::call, small RPC between two nodes.
    ScopedSpan span(spans, "probe_fabric_call", -1, kRun);
    net::FabricOptions options;
    options.num_nodes = 2;
    net::Fabric fabric(options);
    fabric.register_handler(net::MsgType::kHeartbeat,
                            [](const net::Message& msg) {
                              net::Message reply;
                              reply.type = net::MsgType::kAck;
                              reply.set_payload(
                                  msg.payload_as<std::uint64_t>() + 1);
                              return reply;
                            });
    m["net.call_probe_host_ns"] = ns_per_call(20000, [&](int i) {
      net::Message request;
      request.type = net::MsgType::kHeartbeat;
      request.dst = 1;
      request.set_payload(static_cast<std::uint64_t>(i));
      const net::Message reply = fabric.call(0, request);
      ok &= reply.payload_as<std::uint64_t>() ==
            static_cast<std::uint64_t>(i) + 1;
    });
  }

  {  // Warm directory, hint cache and resident loads on a live process.
    ScopedSpan span(spans, "probe_resident", -1, kRun);
    constexpr std::uint64_t kPages = 64;
    core::ClusterConfig cluster_config;
    cluster_config.num_nodes = 2;
    Cluster cluster(cluster_config);
    auto process = cluster.create_process(ProcessOptions{});
    const GAddr base = process->mmap(kPages * kPageSize, kProtReadWrite,
                                     "probe:pages");
    for (std::uint64_t p = 0; p < kPages; ++p) {
      process->store<std::uint64_t>(base + p * kPageSize, p + 1);
    }
    DexThread reader = process->spawn([&] {
      migrate(1);
      for (std::uint64_t p = 0; p < kPages; ++p) {
        ok &= process->load<std::uint64_t>(base + p * kPageSize) == p + 1;
      }
      migrate_back();
    });
    reader.join();
    auto page = [&](int i) {
      return base + static_cast<std::uint64_t>(i) % kPages * kPageSize;
    };
    std::uint64_t hits = 0;
    m["mem.find_probe_host_ns"] = ns_per_call(1000000, [&](int i) {
      hits += process->dsm().directory().find(page(i)) != nullptr;
    });
    ok &= hits == 5 * 1000000ULL;
    mem::HomeHintCache& hints = process->dsm().home_cache(1);
    std::uint64_t valid = 0;
    m["mem.hint_probe_host_ns"] = ns_per_call(1000000, [&](int i) {
      valid += hints.lookup(page(i)).valid;
    });
    g_sink = valid;
    m["core.load_probe_host_ns"] = ns_per_call(200000, [&](int i) {
      ok &= process->load<std::uint64_t>(page(i)) ==
            static_cast<std::uint64_t>(i) % kPages + 1;
    });
  }

  {  // TimeGate::throttle with four coupled clocks that never block.
    ScopedSpan span(spans, "probe_gate_throttle", -1, kRun);
    TimeGate& gate = TimeGate::instance();
    gate.enable(8000);
    std::array<VirtualClock, 4> clocks;
    for (auto& clock : clocks) gate.add(&clock);
    m["common.gate_throttle_probe_host_ns"] = ns_per_call(200000, [&](int i) {
      VirtualClock& clock = clocks[static_cast<std::size_t>(i) % 4];
      clock.advance(1);
      gate.throttle(&clock);
    });
    gate.disable();
  }

  {  // Table II: one thread migrating to node 1 and back ten times.
    ScopedSpan span(spans, "probe_migration", -1, kRun);
    core::ClusterConfig cluster_config;
    cluster_config.num_nodes = 2;
    Cluster cluster(cluster_config);
    auto process = cluster.create_process(ProcessOptions{});
    std::vector<Span> thread_spans;
    DexThread thread = process->spawn([&] {
      for (int i = 0; i < 10; ++i) {
        {
          ScopedSpan s(spans, "migrate", span.id(), kRun, 1, &thread_spans);
          migrate(1);
        }
        compute(1000);
        ScopedSpan s(spans, "migrate_back", span.id(), kRun, 1,
                     &thread_spans);
        migrate_back();
      }
    });
    thread.join();
    spans.add_all(thread_spans);
    std::vector<double> first, later, back;
    for (const MigrationRecord& r : process->migration_log()) {
      const double us = static_cast<double>(r.total_ns) / 1e3;
      (r.backward ? back : r.first_for_thread ? first : later).push_back(us);
    }
    ok &= first.size() == 1 && later.size() == 9 && back.size() == 10;
    m["core.migrate_first_virt_us"] = median(first);
    m["core.migrate_later_virt_us"] = median(later);
    m["core.migrate_back_virt_us"] = median(back);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit,
              note.c_str());
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

const char* unit_of(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_ns") || ends("_ns_p50") || ends("_ns_p99")) return "ns";
  if (ends("_us") || ends("_us_mean") || ends("_us_p50") || ends("_us_p99")) {
    return "us";
  }
  if (ends("_ratio")) return "ratio";
  if (ends("_mb")) return "MB";
  if (ends("_s")) return "s";
  if (ends("bytes") || ends("_per_remote_fault")) return "B";
  return "count";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bt|kmn|scan --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

// The applications' own end-of-run statistics snapshot, reached through the
// linker's --wrap (see CMakeLists.txt): perfbench reads the process's
// counters right after the application has, while the process is alive.
void real_snapshot_stats(dex::core::Process& process,
                         dex::apps::RunResult& result) __asm__(
    "__real__ZN3dex4apps14snapshot_statsERNS_4core7ProcessERNS0_9RunResultE");
void wrapped_snapshot_stats(dex::core::Process& process,
                            dex::apps::RunResult& result) __asm__(
    "__wrap__ZN3dex4apps14snapshot_statsERNS_4core7ProcessERNS0_9RunResultE");
void wrapped_snapshot_stats(dex::core::Process& process,
                            dex::apps::RunResult& result) {
  real_snapshot_stats(process, result);
  g_app_counts = read_dsm(process);
}

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  // bt and kmn: the paper's Optimized ports on 2 nodes x 2 threads, every
  // other RunConfig field at its default (the default protocol).
  apps::RunConfig config;
  config.nodes = 2;
  config.threads_per_node = 2;
  config.variant = apps::Variant::kOptimized;
  config.seed = seed;
  apps::App* app = nullptr;
  std::optional<ScanInput> scan_input;
  if (workload == "bt" || workload == "kmn") {
    app = apps::find_app(workload == "bt" ? "BT" : "KMN");
    DEX_CHECK(app != nullptr);
  } else if (workload == "scan") {
    scan_input = make_scan_input(seed);
  } else {
    return usage();
  }

  SpanLog spans;
  auto run_rep = [&](int run) {
    return app != nullptr ? run_app_rep(*app, config, spans, run)
                          : run_scan_rep(*scan_input, spans, run);
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto account = [&](const Rep& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    std::printf("REP {\"attempted\":%llu,\"failed\":%llu,\"virt_ms\":%.6f,"
                "\"host_s\":%.6f,\"host_cpu_s\":%.6f,\"setup_s\":%.6f}\n",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), rep.virt_ms,
                rep.host_s, rep.cpu_s, rep.setup_s);
    std::fflush(stdout);
  };

  // One unmeasured warm-up repetition: lazy one-time initialisation in the
  // process is not a cost a user pays per run.
  account(run_rep(-1));

  // Measured repetitions until the budget is spent. A traced run alternates
  // untraced and traced repetitions, so tracing overhead is their difference.
  constexpr std::size_t kMinReps = 3;
  std::vector<Rep> reps;
  const double deadline = host_us() + seconds * 1e6;
  while (reps.size() < kMinReps || host_us() < deadline) {
    const bool traced = trace == 1 && reps.size() % 2 == 1;
    spans.set_enabled(traced);
    reps.push_back(run_rep(static_cast<int>(reps.size())));
    spans.set_enabled(false);
    if (traced) spans.set_fine(false);
    reps.back().traced = traced;
    account(reps.back());
  }

  std::vector<double> host, cpu, virt, setup, host_traced, host_untraced;
  std::vector<double> fault_virt_ns, access_host_ns;
  std::map<std::string, std::vector<double>> layer;
  for (const Rep& rep : reps) {
    host.push_back(rep.host_s);
    cpu.push_back(rep.cpu_s);
    virt.push_back(rep.virt_ms);
    setup.push_back(rep.setup_s);
    (rep.traced ? host_traced : host_untraced).push_back(rep.host_s);
    fault_virt_ns.insert(fault_virt_ns.end(), rep.fault_virt_ns.begin(),
                         rep.fault_virt_ns.end());
    access_host_ns.insert(access_host_ns.end(), rep.access_host_ns.begin(),
                          rep.access_host_ns.end());
    for (const auto& [name, value] : layer_metrics(rep.counts)) {
      layer[name].push_back(value);
    }
  }
  rusage usage_info{};
  getrusage(RUSAGE_SELF, &usage_info);
  const double rss_mb = static_cast<double>(usage_info.ru_maxrss) / 1024.0;

  std::printf("perfbench %s seed=%llu reps=%zu (+1 warm-up) trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              reps.size(), trace);
  // Printed on every run. BENCHMARK.json bounds the steady ones. The
  // virtual-time metrics are exact outputs of the cost model (bt and scan
  // read the same on every seed), and the wall time of four gate-coupled
  // threads swings with the host's CPU steal, so both travel with the traced
  // run's per-layer metrics; error_rate is the result's failed/attempted.
  const Metric virt_ms = {"virt_ms", median(virt), "ms"};
  const Metric host_s = {"host_s", median(host), "s"};
  const std::vector<Metric> end_to_end = {
      {"host_cpu_s", median(cpu), "s"},
      {"setup_s", median(setup), "s"},
      {"rss_mb", rss_mb, "MB"},
  };
  const std::size_t n_fault = fault_virt_ns.size();
  const std::string n_note = "(n=" + std::to_string(n_fault) + ")";
  const Metric fault_p50 = {"fault_virt_us_p50",
                            quantile(fault_virt_ns, 0.5) / 1e3, "us"};
  const Metric fault_p99 = {
      "fault_virt_us_p99",
      p99_reportable(n_fault) ? quantile(fault_virt_ns, 0.99) / 1e3 : 0, "us"};
  std::printf("end-to-end (median of %zu repetitions):\n", reps.size());
  print_metric(virt_ms);
  print_metric(host_s);
  for (const Metric& m : end_to_end) print_metric(m);
  print_metric({"error_rate",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                "ratio"},
               "(" + std::to_string(failed) + " of " +
                   std::to_string(attempted) + " operations)");
  if (scan_input) {
    print_metric(fault_p50, n_note);
    if (p99_reportable(n_fault)) {
      print_metric(fault_p99, n_note);
    } else {
      std::printf("  fault_virt_us_p99 not reported %s\n", n_note.c_str());
    }
  }

  bool correct = failed == 0;
  std::vector<Metric> result_metrics = end_to_end;
  if (trace == 1) {
    std::vector<Metric> per_layer = {virt_ms, host_s};
    for (const auto& [name, values] : layer) {
      per_layer.push_back({name, median(values), unit_of(name)});
    }
    per_layer.push_back(fault_p50);
    per_layer.push_back(fault_p99);
    const std::size_t n_access = access_host_ns.size();
    const double access_p50 = quantile(access_host_ns, 0.5);
    const double access_p99 =
        p99_reportable(n_access) ? quantile(access_host_ns, 0.99) : 0;
    per_layer.push_back({"core.access_host_ns_p50", access_p50, "ns"});
    per_layer.push_back({"core.access_host_ns_p99", access_p99, "ns"});
    per_layer.push_back({"trace_overhead_host_s",
                         median(host_traced) - median(host_untraced), "s"});
    bool probes_ok = true;
    spans.set_enabled(true);
    for (const auto& [name, value] : run_probes(spans, probes_ok)) {
      per_layer.push_back({name, value, unit_of(name)});
    }
    if (!probes_ok) std::printf("error: a layer probe read a wrong value\n");
    correct &= probes_ok;
    std::sort(per_layer.begin(), per_layer.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    std::printf(
        "per-layer (counters: median per repetition; percentiles: "
        "access n=%zu, fault n=%zu; 0 where a workload has no samples):\n",
        n_access, n_fault);
    for (const Metric& m : per_layer) print_metric(m);
    result_metrics = per_layer;
    if (!trace_out.empty()) {
      if (spans.write(trace_out, workload, seed)) {
        std::printf("trace: %s\n", trace_out.c_str());
      } else {
        std::printf("error: cannot write %s\n", trace_out.c_str());
        correct = false;
      }
    }
  }
  std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(result_metrics).c_str());
  return 0;
}
