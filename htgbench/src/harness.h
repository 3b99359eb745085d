// Shared pieces of the htgbench harness: options, seeded input
// generation, sample series, correctness checks, span tracing and the
// result report. Everything here lives outside the engine: layers are
// timed around calls into their public APIs, and engine counters are read
// as deltas of htg::obs snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "genomics/formats.h"
#include "genomics/reference.h"

namespace htgbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies every input size; the self-test runs at a tiny scale.
  double scale = 1.0;
  // Also evaluates every correctness check against a deliberately wrong
  // expected value, which must fail.
  bool selftest = false;
  // Scratch and output directory (databases, FASTQ files, trace, report).
  std::string out_dir = ".bench_out";
  // Which of the processes of one untraced run this is (-1: the only one);
  // names the report file.
  int part = -1;
};

// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Aborts the run (nonzero exit, no result line) on an engine error that
// is not a measured operation, such as failing to open a database.
void Die(const std::string& what);
void CheckOk(const htg::Status& status, const std::string& what);
template <typename T>
T CheckOk(htg::Result<T> result, const std::string& what) {
  CheckOk(result.ok() ? htg::Status::OK() : result.status(), what);
  return std::move(*result);
}

// ---- seeded inputs ------------------------------------------------------

// SplitMix64: the harness's only source of randomness, so inputs depend on
// the seed and on this file alone.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

htg::genomics::ReferenceGenome MakeReference(Rng* rng, int chromosomes,
                                             uint64_t bases_per_chromosome);

// Re-sequencing reads: uniform origins on both strands, so nearly every
// read is unique (the 1000 Genomes regime).
std::vector<htg::genomics::ShortRead> MakeReseqReads(
    Rng* rng, const htg::genomics::ReferenceGenome& ref, uint64_t n,
    int read_length, int lane);

// Digital gene expression tags: `genes` sites drawn with Zipf(1.05)
// weights, so few distinct sequences carry most reads.
std::vector<htg::genomics::ShortRead> MakeDgeReads(
    Rng* rng, const htg::genomics::ReferenceGenome& ref, uint64_t n,
    int genes, int read_length);

// Sum of sequence and quality bytes plus name bytes as a FASTQ file holds
// them (the "input byte" of stored_bytes_per_input_byte).
uint64_t FastqBytes(const std::vector<htg::genomics::ShortRead>& reads);
void WriteFastq(const std::string& path,
                const std::vector<htg::genomics::ShortRead>& reads);
void WriteFasta(const std::string& path,
                const htg::genomics::ReferenceGenome& ref);

// ---- samples --------------------------------------------------------------

// One value per repetition, kept in the order measured.
class Series {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  double Median() const;
  // Nearest-rank percentile, p in [0, 1].
  double Percentile(double p) const;
  // The highest percentile (in whole percent) that leaves at least ten
  // samples beyond it; 50 when the series is too short for more.
  int TailPercent() const;
  // Median of the second half relative to the first: 0 means no drift.
  double Drift() const;

 private:
  std::vector<double> values_;
};

// ---- host-speed calibration ---------------------------------------------

// A fixed CPU and memory kernel (grouping 60k short DNA strings in a hash
// table and ranking the groups) timed in-run. Shared hosts drift in speed by tens of percent
// over seconds; the harness runs the kernel right before each measured
// block and scales the block's times by kReferenceMs / kernel time, so the
// end-to-end times are in reference milliseconds: what the block would
// take on a host where the kernel takes kReferenceMs. Raw times are
// reported beside them.
class Calibration {
 public:
  // The kernel's median on the host the benchmark was defined on (4-vCPU
  // Xeon VM, g++ 12.2, RelWithDebInfo).
  static constexpr double kReferenceMs = 6.0;
  // Runs the kernel; returns the factor that converts times measured now
  // into reference times.
  double Measure();
  const Series& kernel_ms() const { return kernel_ms_; }

 private:
  Series kernel_ms_;
};

// A measured series kept both raw and in reference units, given the
// calibration factor current when each sample was taken.
struct Measured {
  Series raw;
  Series ref;
  void AddTime(double t, double factor) {
    raw.Add(t);
    ref.Add(t * factor);
  }
  void AddRate(double r, double factor) {
    raw.Add(r);
    ref.Add(r / factor);
  }
};

// ---- tracing ---------------------------------------------------------------

// Spans recorded around calls into the engine's layers. Each thread keeps
// its own buffer; spans stay in memory until WriteJson at the end of the
// run. Disabled tracing costs one branch per span.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index in the same thread's buffer, -1 at the root
    uint32_t thread;
    uint64_t request;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  static Tracer& Global();
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Starts a new request id on this thread; spans opened until the next
  // call carry it.
  void BeginRequest();

  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Per span name: call count, inclusive and self time. Self time is span
  // time minus the time its child spans cover.
  std::map<std::string, Totals> Summarize() const;
  size_t span_count() const;
  void WriteJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    uint64_t request = 0;
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  uint64_t next_request_ = 1;
};

// ---- checks and the report ----------------------------------------------

// Counts operations and correctness checks; safe to share between client
// threads. A check is a comparison that takes a `corrupt` flag: with it
// set the expected value is deliberately wrong, and the self-test requires
// the comparison to fail. A wrong answer and a failed operation are kept
// apart: only a wrong answer makes the run incorrect; both count in
// `failed`.
class Checker {
 public:
  explicit Checker(bool selftest) : selftest_(selftest) {}
  // Returns whether the real comparison passed; a failure marks the run
  // incorrect and counts one failed operation.
  bool Verify(const std::string& name,
              const std::function<bool(bool corrupt)>& compare);
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  // An operation that returned an error or aborted (also when it is
  // retried): counts one failed operation, leaves the verdict alone.
  void Fail(const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  // Check name -> {passes, detects a wrong expected value}.
  const std::map<std::string, std::pair<bool, bool>>& checks() const {
    return checks_;
  }

 private:
  void CountFailureLocked(const std::string& what);

  std::mutex mu_;
  bool selftest_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<bool, bool>> checks_;
};

// Engine counter deltas between two points of the run.
class CounterWindow {
 public:
  CounterWindow();
  // Delta of a counter since construction (or the last Reset).
  uint64_t Counter(const std::string& name) const;
  int64_t Gauge(const std::string& name) const;
  const htg::obs::HistogramSnapshot* Histogram(const std::string& name) const;
  void Reset();

 private:
  htg::obs::MetricsSnapshot base_;
  htg::obs::MetricsSnapshot Current() const;
  mutable htg::obs::MetricsSnapshot delta_;
};

// The metric names BENCHMARK.json lists, with their units: end-to-end
// metrics come from untraced runs, per-layer metrics from traced runs.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

class Report {
 public:
  Report(const Options& options, Checker* checker);
  // A metric of the result line. Untraced runs must set every end-to-end
  // metric; traced runs report a per-layer metric the workload does not
  // exercise as 0 and list it under "not exercised".
  void Metric(const std::string& name, double value);
  // A figure printed and written to the report file only.
  void Info(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& text);
  // Per-rep series with median, tail percentile, count and drift.
  void AddSeries(const std::string& name, const std::string& unit,
                 const Series& series);
  // Both series of `m`: "<name>" raw and "<name>_ref" in reference units.
  void AddSeries(const std::string& name, const std::string& unit,
                 const Measured& m);
  // Prints the human-readable lines, writes the report file and prints
  // the result line last.
  void Finish();

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const Options& options_;
  Checker* checker_;
  std::map<std::string, double> metrics_;
  std::vector<Entry> info_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> series_json_;
  std::vector<std::string> series_lines_;
};

// Peak resident set size of the process, in MB.
double PeakRssMb();
std::string JsonEscape(const std::string& s);
std::string JsonNum(double v);

// Working directory of one workload run; emptied on construction and
// removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const Options& options);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }
  // A fresh subdirectory name for one database's files.
  std::string Fresh(const std::string& tag);

 private:
  std::string path_;
  int counter_ = 0;
};

// Workloads. Each runs set-up, the measured loop and its checks, and adds
// its metrics to `report`.
void RunDgeBin(const Options& options, Checker* checker, Report* report);
void RunReseqWorkflow(const Options& options, Checker* checker,
                      Report* report);
void RunServerMixed(const Options& options, Checker* checker,
                    Report* report);

}  // namespace htgbench
