#include "harness.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace perfbench {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

uint64_t Mix(uint64_t row, uint64_t salt) {
  Rng rng(row * 0x2545F4914F6CDD1Dull + salt);
  return rng.Next();
}

std::vector<int> Permutation(int n, Rng& rng) {
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  return perm;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t drop =
      static_cast<size_t>(kTrim * static_cast<double>(values.size()));
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double RefKernelMs() {
  static volatile uint64_t sink = 0;
  double t0 = Now();
  Rng rng(0x5eed);  // the same inputs on every call
  uint64_t acc = 0;
  std::vector<uint32_t> ints(4096);
  for (int rep = 0; rep < 6; ++rep) {
    for (uint32_t& v : ints) v = static_cast<uint32_t>(rng.Next());
    std::sort(ints.begin(), ints.end());
    std::unordered_map<uint32_t, uint32_t> sums;
    for (uint32_t v : ints) sums[v & 4095] += v;
    for (uint32_t v : ints) {
      auto it = sums.find(v & 8191);
      if (it != sums.end()) acc += it->second;
    }
  }
  std::vector<std::string> words;
  for (int i = 0; i < 3000; ++i) {
    uint64_t h = rng.Next();
    words.push_back(std::to_string(h >> 20) + "-" + std::to_string(h & 1023));
  }
  std::sort(words.begin(), words.end());
  std::unordered_map<std::string, int> seen;
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& w : words) seen[w] += rep;
    for (const std::string& w : words) acc += seen.count(w.substr(0, 6));
  }
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.emplace_back(1 + (i * 37) % 64, i);
    if (rows.size() > 512) rows.erase(rows.begin(), rows.begin() + 256);
  }
  sink = sink + acc + rows.size();
  return (Now() - t0) * 1e3;
}

void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  long long kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kb) / 1024.0;
}

std::vector<CanonFd> Canonical(const std::vector<famtree::DiscoveredFd>& fds) {
  std::vector<CanonFd> out;
  out.reserve(fds.size());
  for (const famtree::DiscoveredFd& fd : fds) {
    out.emplace_back(fd.lhs.size(), fd.lhs, fd.rhs);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ----------------------------------------------------------------- tracing

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::Begin(const char* name, int64_t op) {
  int parent = open_spans.empty() ? -1 : open_spans.back();
  double start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  int index = static_cast<int>(records_.size());
  records_.push_back({name, start, start, parent, op});
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int index) {
  double end = Now();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  records_[index].end = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent >= 0) children[records_[i].parent].push_back(i);
  }
  std::map<std::string, Summary> out;
  std::map<std::string, std::vector<double>> durations;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    double dur = r.end - r.start;
    // Self time: the span minus the union of its children's intervals.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) iv.push_back({records_[c].start, records_[c].end});
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Summary& s = out[r.name];
    ++s.calls;
    s.total_ms += dur * 1e3;
    s.self_ms += (dur - covered) * 1e3;
    durations[r.name].push_back(dur * 1e3);
  }
  for (auto& [name, s] : out) s.p50_ms = Quantile(durations[name], 0.5);
  return out;
}

double TracingOverheadPct(size_t spans, double traced_op_seconds) {
  if (traced_op_seconds <= 0.0) return 0.0;
  constexpr int kProbe = 20000;
  Tracer probe(true);
  double t0 = Now();
  for (int i = 0; i < kProbe; ++i) Span span(probe, "probe", i);
  double per_span = (Now() - t0) / kProbe;
  return 100.0 * per_span * static_cast<double>(spans) / traced_op_seconds;
}

// ----------------------------------------------------------------- report

void Report::Fail(int64_t op, const std::string& what) {
  correct = false;
  if (failures.size() < 8) {
    failures.push_back("op " + std::to_string(op) + ": " + what);
  }
}

void LayerCounters::AddEngine(const famtree::PliCache::Stats& after,
                              const famtree::EvidenceCache::Stats& ev_after,
                              const famtree::PliCache::Stats& before,
                              const famtree::EvidenceCache::Stats& ev_before) {
  pli.hits += after.hits - before.hits;
  pli.misses += after.misses - before.misses;
  pli.builds += after.builds - before.builds;
  pli.evictions += after.evictions - before.evictions;
  pli.bytes = after.bytes;
  evidence.hits += ev_after.hits - ev_before.hits;
  evidence.misses += ev_after.misses - ev_before.misses;
  evidence.builds += ev_after.builds - ev_before.builds;
  evidence.bytes = ev_after.bytes;
}

void LayerCounters::AddHybrid(const famtree::HybridFdStats& stats) {
  hybrid.sampled_pairs += stats.sampled_pairs;
  hybrid.frontier_checks += stats.frontier_checks;
  hybrid.frontier_violations += stats.frontier_violations;
}

void LayerCounters::Publish(Report* report, int64_t ops) const {
  if (ops <= 0) return;
  auto per_op = [ops](int64_t v) { return static_cast<double>(v) / ops; };
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / den : 0.0;
  };
  report->Set("engine.pli.hits", per_op(pli.hits));
  report->Set("engine.pli.misses", per_op(pli.misses));
  report->Set("engine.pli.builds", per_op(pli.builds));
  report->Set("engine.pli.evictions", per_op(pli.evictions));
  report->Set("engine.pli.bytes", pli.bytes / 1048576.0);
  report->Set("engine.pli.hit_ratio", ratio(pli.hits, pli.hits + pli.misses));
  report->Set("engine.evidence.hits", per_op(evidence.hits));
  report->Set("engine.evidence.misses", per_op(evidence.misses));
  report->Set("engine.evidence.builds", per_op(evidence.builds));
  report->Set("engine.evidence.bytes", evidence.bytes / 1048576.0);
  report->Set("engine.evidence.hit_ratio",
              ratio(evidence.hits, evidence.hits + evidence.misses));
  report->Set("discovery.hybrid.sampled_pairs", per_op(hybrid.sampled_pairs));
  report->Set("discovery.hybrid.frontier_checks",
              per_op(hybrid.frontier_checks));
  report->Set("discovery.hybrid.frontier_violations",
              per_op(hybrid.frontier_violations));
  report->Set("discovery.hybrid.frontier_valid_ratio",
              ratio(hybrid.frontier_checks - hybrid.frontier_violations,
                    hybrid.frontier_checks));
}

void SetEndToEnd(Report* report, const std::vector<double>& op_ms,
                 const std::vector<double>& ops_per_s,
                 const std::vector<double>& ref_ms,
                 const std::vector<double>& setup_s, double peak_rss_mb) {
  double op = TrimmedMean(op_ms);
  double per_s = TrimmedMean(ops_per_s);
  double ref = TrimmedMean(ref_ms);
  double speed = ref > 0.0 ? kRefKernelMs / ref : 1.0;
  auto& m = report->end_to_end;
  m["op_norm_ms"] = op * speed;
  m["ops_per_s_norm"] = per_s / speed;
  m["setup_s"] = Quantile(setup_s, 0.5);
  m["peak_rss_mb"] = peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMb();
  report->Set("trace.op_trimmed_mean_ms", op);
  report->Set("bench.ref_kernel_ms", ref);
  report->Set("trace.op_p50_ms", Quantile(op_ms, 0.5));
  report->Set("trace.op_p90_ms", Quantile(op_ms, 0.9));
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int Emit(const Args& args, Report& report, const Tracer& tracer) {
  if (args.trace) {
    auto spans = tracer.Summarize();
    std::printf("# %-40s %8s %12s %12s %10s\n", "span", "calls", "total_ms",
                "self_ms", "p50_ms");
    for (const auto& [name, s] : spans) {
      std::printf("# %-40s %8lld %12.3f %12.3f %10.3f\n", name.c_str(),
                  static_cast<long long>(s.calls), s.total_ms, s.self_ms,
                  s.p50_ms);
    }
    // A span named X feeds the per-layer metric X_ms (median call time).
    for (const auto& [name, s] : spans) {
      std::string metric = name + "_ms";
      if (!report.per_layer.count(metric)) report.Set(metric, s.p50_ms);
    }
    auto op = spans.find("op");
    if (op != spans.end() && op->second.calls > 0) {
      report.Set("bench.op_self_ms", op->second.self_ms / op->second.calls);
      report.Set("trace.spans", static_cast<double>(tracer.size()));
      report.Set("trace.overhead_pct",
                 TracingOverheadPct(tracer.size(), op->second.total_ms / 1e3));
    }
  }

  std::printf(
      "# config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"rev\": \"%s\", \"threads\": {\"clients\": %d, \"engine_pool\": %d, "
      "\"serve_workers\": %d}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      args.rev.c_str(), report.threads.clients, report.threads.engine_pool,
      report.threads.serve_workers);
  std::printf("# raw: op_trimmed_mean_ms %.3f, ref_kernel_ms %.3f\n",
              report.per_layer["trace.op_trimmed_mean_ms"],
              report.per_layer["bench.ref_kernel_ms"]);
  std::printf("# ops: %lld attempted, %lld failed\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& f : report.failures) {
    std::printf("# FAILED %s\n", f.c_str());
  }
  if (report.attempted < 1) {
    report.correct = false;
    report.attempted = 1;
    report.failed = 1;
  }

  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] :
       args.trace ? report.per_layer : report.end_to_end) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": " + JsonNumber(value);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace perfbench
