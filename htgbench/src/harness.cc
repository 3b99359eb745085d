#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "genomics/nucleotide.h"

namespace htgbench {

void Die(const std::string& what) {
  fprintf(stderr, "htgbench: FATAL %s\n", what.c_str());
  fflush(stdout);
  _exit(1);
}

void CheckOk(const htg::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---- seeded inputs ------------------------------------------------------

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr char kAcgt[] = "ACGT";

// Phred+33 qualities falling along the read, as on Illumina-era lanes.
char QualityAt(Rng* rng, int i, int length) {
  const int q = 40 - (25 * i) / std::max(1, length) -
                static_cast<int>(rng->Below(6));
  return static_cast<char>(33 + std::max(2, q));
}

// Copies `truth` with sequencing errors: a substitution chance rising from
// 0.2% to 1% along the read and a 0.1% chance of an uncalled base.
htg::genomics::ShortRead Sequence(Rng* rng, const std::string& truth,
                                  std::string name) {
  htg::genomics::ShortRead read;
  read.name = std::move(name);
  read.sequence = truth;
  read.quality.resize(truth.size());
  const int length = static_cast<int>(truth.size());
  for (int i = 0; i < length; ++i) {
    read.quality[i] = QualityAt(rng, i, length);
    const double error = 0.002 + 0.008 * i / std::max(1, length);
    const double u = rng->Uniform();
    if (u < 0.001) {
      read.sequence[i] = 'N';
      read.quality[i] = '#';
    } else if (u < 0.001 + error) {
      char b = kAcgt[rng->Below(4)];
      while (b == truth[i]) b = kAcgt[rng->Below(4)];
      read.sequence[i] = b;
      read.quality[i] = static_cast<char>(33 + 5 + rng->Below(10));
    }
  }
  return read;
}

std::string ReadName(int lane, uint64_t index) {
  htg::genomics::ReadCoordinates c;
  c.machine = "HTG";
  c.flowcell = 855;
  c.lane = lane;
  c.tile = static_cast<int>(index / 1000000) + 1;
  c.x = static_cast<int>((index / 1000) % 1000);
  c.y = static_cast<int>(index % 1000);
  return htg::genomics::FormatReadName(c);
}

}  // namespace

htg::genomics::ReferenceGenome MakeReference(Rng* rng, int chromosomes,
                                             uint64_t bases_per_chromosome) {
  std::vector<htg::genomics::Chromosome> chroms;
  for (int c = 0; c < chromosomes; ++c) {
    htg::genomics::Chromosome chrom;
    chrom.name = "chr" + std::to_string(c + 1);
    chrom.sequence.resize(bases_per_chromosome);
    for (char& b : chrom.sequence) b = kAcgt[rng->Below(4)];
    chroms.push_back(std::move(chrom));
  }
  return htg::genomics::ReferenceGenome(std::move(chroms));
}

std::vector<htg::genomics::ShortRead> MakeReseqReads(
    Rng* rng, const htg::genomics::ReferenceGenome& ref, uint64_t n,
    int read_length, int lane) {
  std::vector<htg::genomics::ShortRead> reads;
  reads.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const std::string& seq =
        ref.chromosome(static_cast<int>(rng->Below(ref.num_chromosomes())))
            .sequence;
    const uint64_t position = rng->Below(seq.size() - read_length);
    std::string truth = seq.substr(position, read_length);
    if (rng->Below(2) == 1) truth = htg::genomics::ReverseComplement(truth);
    reads.push_back(Sequence(rng, truth, ReadName(lane, i)));
  }
  return reads;
}

std::vector<htg::genomics::ShortRead> MakeDgeReads(
    Rng* rng, const htg::genomics::ReferenceGenome& ref, uint64_t n,
    int genes, int read_length) {
  std::vector<std::string> sites;
  std::vector<double> cdf;
  double total = 0;
  for (int g = 0; g < genes; ++g) {
    const std::string& seq =
        ref.chromosome(static_cast<int>(rng->Below(ref.num_chromosomes())))
            .sequence;
    sites.push_back(
        seq.substr(rng->Below(seq.size() - read_length), read_length));
    total += 1.0 / std::pow(g + 1, 1.05);
    cdf.push_back(total);
  }
  std::vector<htg::genomics::ShortRead> reads;
  reads.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double u = rng->Uniform() * total;
    const size_t g = std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        sites.size() - 1);
    reads.push_back(Sequence(rng, sites[g], ReadName(1, i)));
  }
  return reads;
}

uint64_t FastqBytes(const std::vector<htg::genomics::ShortRead>& reads) {
  uint64_t bytes = 0;
  for (const auto& r : reads) {
    // "@name\nseq\n+\nqual\n"
    bytes += r.name.size() + r.sequence.size() + r.quality.size() + 6;
  }
  return bytes;
}

void WriteFastq(const std::string& path,
                const std::vector<htg::genomics::ShortRead>& reads) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& r : reads) {
    out << '@' << r.name << '\n' << r.sequence << "\n+\n" << r.quality << '\n';
  }
  if (!out) Die("write " + path);
}

void WriteFasta(const std::string& path,
                const htg::genomics::ReferenceGenome& ref) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& chrom : ref.chromosomes()) {
    out << '>' << chrom.name << '\n';
    for (size_t i = 0; i < chrom.sequence.size(); i += 60) {
      out << chrom.sequence.substr(i, 60) << '\n';
    }
  }
  if (!out) Die("write " + path);
}

// ---- samples --------------------------------------------------------------

double Series::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double Series::Median() const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

int Series::TailPercent() const {
  const double n = static_cast<double>(values_.size());
  if (n < 20) return 50;
  // Largest whole percentile p with n * (1 - p/100) >= 10.
  const int p = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n) + 1e-9));
  return std::min(p, 99);
}

double Series::Drift() const {
  if (values_.size() < 4) return 0;
  const size_t half = values_.size() / 2;
  Series first;
  Series second;
  for (size_t i = 0; i < values_.size(); ++i) {
    (i < half ? first : second).Add(values_[i]);
  }
  const double base = first.Median();
  return base == 0 ? 0 : second.Median() / base - 1.0;
}

// ---- host-speed calibration ---------------------------------------------

double Calibration::Measure() {
  // 60k reads over 12k distinct 24-mers with a skewed frequency: counted
  // in an open-addressing hash table and ranked by count, the shape of
  // Query 1. Every buffer is allocated once, so the kernel's speed does
  // not depend on the state of the process heap.
  constexpr int kReads = 60000;
  constexpr int kDistinct = 12000;
  constexpr size_t kSlots = 32768;
  constexpr size_t kLength = 24;
  struct State {
    std::vector<char> reads = std::vector<char>(kReads * kLength);
    std::vector<int32_t> slot_read = std::vector<int32_t>(kSlots);
    std::vector<int64_t> slot_count = std::vector<int64_t>(kSlots);
    std::vector<int32_t> order = std::vector<int32_t>(kSlots);
  };
  static State* st = [] {
    auto* state = new State();
    Rng rng(43);
    std::vector<char> distinct(kDistinct * kLength);
    for (char& c : distinct) c = kAcgt[rng.Below(4)];
    for (int i = 0; i < kReads; ++i) {
      const double u = rng.Uniform();
      const size_t d = static_cast<size_t>(u * u * u * kDistinct);
      std::copy_n(&distinct[d * kLength], kLength, &state->reads[i * kLength]);
    }
    return state;
  }();
  auto kernel = [] {
    const int64_t start = NowNs();
    std::fill(st->slot_read.begin(), st->slot_read.end(), -1);
    std::fill(st->slot_count.begin(), st->slot_count.end(), 0);
    for (int i = 0; i < kReads; ++i) {
      const char* key = &st->reads[i * kLength];
      uint64_t h = 1469598103934665603ULL;
      for (size_t k = 0; k < kLength; ++k) {
        h = (h ^ static_cast<uint8_t>(key[k])) * 1099511628211ULL;
      }
      size_t slot = h & (kSlots - 1);
      while (st->slot_read[slot] >= 0 &&
             memcmp(&st->reads[st->slot_read[slot] * kLength], key,
                    kLength) != 0) {
        slot = (slot + 1) & (kSlots - 1);
      }
      if (st->slot_read[slot] < 0) st->slot_read[slot] = i;
      ++st->slot_count[slot];
    }
    size_t groups = 0;
    for (size_t slot = 0; slot < kSlots; ++slot) {
      if (st->slot_read[slot] >= 0) st->order[groups++] = slot;
    }
    std::sort(st->order.begin(), st->order.begin() + groups,
              [](int32_t a, int32_t b) {
                if (st->slot_count[a] != st->slot_count[b]) {
                  return st->slot_count[a] > st->slot_count[b];
                }
                return memcmp(&st->reads[st->slot_read[a] * kLength],
                              &st->reads[st->slot_read[b] * kLength],
                              kLength) < 0;
              });
    if (groups == 0) Die("calibration kernel");
    return (NowNs() - start) * 1e-6;
  };
  Tracer::Span span(&Tracer::Global(), "harness.calibration");
  // The first run pays for cold caches.
  if (kernel_ms_.empty()) kernel();
  // The faster of two runs: a run the scheduler interrupts says nothing
  // about the host's speed.
  const double ms = std::min(kernel(), kernel());
  kernel_ms_.Add(ms);
  return kReferenceMs / ms;
}

// ---- tracing ---------------------------------------------------------------

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size() - 1);
  }
  return local;
}

void Tracer::BeginRequest() {
  if (!enabled()) return;
  ThreadBuffer* buf = Local();
  std::lock_guard<std::mutex> lock(mu_);
  buf->request = next_request_++;
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled()) return;
  ThreadBuffer* buf = tracer_->Local();
  index_ = static_cast<int32_t>(buf->spans.size());
  buf->spans.push_back({name, NowNs(), 0,
                        buf->open.empty() ? -1 : buf->open.back(),
                        buf->thread, buf->request});
  buf->open.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer* buf = tracer_->Local();
  buf->spans[index_].end_ns = NowNs();
  buf->open.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> out;
  for (const auto& buf : buffers_) {
    // Child spans on one thread nest strictly, so the time children cover
    // is the sum of their durations.
    std::vector<int64_t> child_ns(buf->spans.size(), 0);
    for (const SpanRecord& s : buf->spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& s = buf->spans[i];
      Totals& t = out[s.name];
      t.count += 1;
      t.total_ms += (s.end_ns - s.start_ns) * 1e-6;
      t.self_ms += (s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    }
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buf : buffers_) n += buf->spans.size();
  return n;
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  out << "{\"spans\": [\n";
  bool first = true;
  int64_t origin = INT64_MAX;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      for (const SpanRecord& s : buf->spans) {
        origin = std::min(origin, s.start_ns);
      }
    }
    for (const auto& buf : buffers_) {
      for (size_t i = 0; i < buf->spans.size(); ++i) {
        const SpanRecord& s = buf->spans[i];
        out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
            << "\", \"thread\": " << s.thread << ", \"id\": " << i
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request
            << ", \"start_us\": " << JsonNum((s.start_ns - origin) * 1e-3)
            << ", \"end_us\": " << JsonNum((s.end_ns - origin) * 1e-3)
            << "}";
        first = false;
      }
    }
  }
  out << "\n], \"summary\": {";
  first = true;
  for (const auto& [name, t] : Summarize()) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << t.count
        << ", \"total_ms\": " << JsonNum(t.total_ms)
        << ", \"self_ms\": " << JsonNum(t.self_ms) << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) Die("write " + path);
}

// ---- checks ----------------------------------------------------------------

bool Checker::Verify(const std::string& name,
                     const std::function<bool(bool corrupt)>& compare) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  const bool pass = compare(false);
  auto [it, inserted] = checks_.try_emplace(name, true, true);
  if (!pass) {
    it->second.first = false;
    correct_ = false;
    CountFailureLocked("wrong answer: check " + name);
  }
  // The self-test needs every check to reject a wrong expected value;
  // one corrupted comparison per check name is enough to show it.
  if (selftest_ && inserted) it->second.second = !compare(true);
  return pass;
}

void Checker::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  CountFailureLocked(what);
}

void Checker::CountFailureLocked(const std::string& what) {
  ++failed_;
  if (failed_ <= 20) fprintf(stderr, "htgbench: failed %s\n", what.c_str());
}

// ---- counters --------------------------------------------------------------

CounterWindow::CounterWindow() { Reset(); }

void CounterWindow::Reset() {
  base_ = htg::obs::MetricsRegistry::Global().Snapshot();
}

htg::obs::MetricsSnapshot CounterWindow::Current() const {
  return htg::obs::MetricsRegistry::Global().Snapshot().Delta(base_);
}

uint64_t CounterWindow::Counter(const std::string& name) const {
  delta_ = Current();
  auto it = delta_.counters.find(name);
  return it == delta_.counters.end() ? 0 : it->second;
}

int64_t CounterWindow::Gauge(const std::string& name) const {
  delta_ = Current();
  auto it = delta_.gauges.find(name);
  return it == delta_.gauges.end() ? 0 : it->second;
}

const htg::obs::HistogramSnapshot* CounterWindow::Histogram(
    const std::string& name) const {
  delta_ = Current();
  auto it = delta_.histograms.find(name);
  return it == delta_.histograms.end() ? nullptr : &it->second;
}

// ---- report ----------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // kilobytes on Linux
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string SourceId() {
  const char* env = getenv("HTGBENCH_SOURCE_ID");
  return env != nullptr && *env != '\0' ? env : "unknown";
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"q1_dop1_p50_ms", "ms"},
      {"core_p50_ms", "ms"},
      {"stmts_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"stored_bytes_per_input_byte", "B/B"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"storage.scan_ns_per_row", "ns"},
      {"exec.scan_ns_per_row", "ns"},
      {"exec.filter_ns_per_row", "ns"},
      {"exec.hashagg_ns_per_row", "ns"},
      {"exec.sort_rank_ns_per_group", "ns"},
      {"exec.join_ns_per_row", "ns"},
      {"exec.dop4_speedup", "x"},
      {"exec.morsels_stolen_per_query", "count"},
      {"exec.rows_per_batch", "count"},
      {"exec.spill_bytes_per_query", "B"},
      {"mem.query_peak_mb", "MB"},
      {"bufferpool.hit_ratio", "ratio"},
      {"bufferpool.miss_per_query", "count"},
      {"bufferpool.evict_per_query", "count"},
      {"vfs.read_bytes_per_query", "B"},
      {"page.read_ops_per_query", "count"},
      {"btree.leaf_reads_per_query", "count"},
      {"genomics.tvf_fillrow_ns_per_row", "ns"},
      {"exec.fillrow_rows_per_query", "count"},
      {"genomics.align_us_per_read", "us"},
      {"filestream.import_mb_per_s", "MB/s"},
      {"workflow.load_ns_per_row", "ns"},
      {"storage.clustered_insert_ns_per_row", "ns"},
      {"storage.bytes_per_user_byte", "B/B"},
      {"sql.parse_us", "us"},
      {"sql.plan_us", "us"},
      {"server.rtt_us", "us"},
      {"server.lock_wait_us_per_stmt", "us"},
      {"server.lock_timeouts_per_stmt", "count"},
      {"server.statement_retries_per_stmt", "count"},
      {"server.txn_aborted_per_stmt", "count"},
      {"server.conflict_probe_abort_frac", "ratio"},
      {"mvcc.gc_sweeps_per_1k_writes", "count"},
      {"mvcc.gc_entries_removed_per_1k_writes", "count"},
      {"wal.appends_per_commit", "count"},
      {"vfs.sync_ops_per_commit", "count"},
      {"ledger.stage_sum_over_q1", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

Report::Report(const Options& options, Checker* checker)
    : options_(options), checker_(checker) {}

void Report::Metric(const std::string& name, double value) {
  const std::vector<MetricSpec>& specs =
      options_.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool known = false;
  for (const MetricSpec& spec : specs) known = known || name == spec.name;
  if (!known) Die("metric " + name + " is not in this run's metric list");
  metrics_[name] = value;
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::Note(const std::string& key, const std::string& text) {
  notes_.emplace_back(key, text);
}

void Report::AddSeries(const std::string& name, const std::string& unit,
                       const Series& series) {
  const int tail = series.TailPercent();
  std::string json = "{\"name\": \"" + JsonEscape(name) + "\", \"unit\": \"" +
                     unit + "\", \"count\": " + std::to_string(series.size()) +
                     ", \"p50\": " + JsonNum(series.Median()) +
                     ", \"tail_percentile\": " + std::to_string(tail) +
                     ", \"tail\": " + JsonNum(series.Percentile(tail / 100.0)) +
                     ", \"drift\": " + JsonNum(series.Drift()) +
                     ", \"reps\": [";
  for (size_t i = 0; i < series.size(); ++i) {
    json += (i ? ", " : "") + JsonNum(series.values()[i]);
  }
  json += "]}";
  series_json_.push_back(json);
  char line[256];
  snprintf(line, sizeof(line),
           "  %-28s p50 %12.4f  p%d %12.4f %-4s n=%-6zu drift %+6.1f%%",
           name.c_str(), series.Median(), tail,
           series.Percentile(tail / 100.0), unit.c_str(), series.size(),
           100 * series.Drift());
  series_lines_.push_back(line);
}

void Report::AddSeries(const std::string& name, const std::string& unit,
                       const Measured& m) {
  AddSeries(name, unit, m.raw);
  AddSeries(name + "_ref", unit, m.ref);
}

void Report::Finish() {
  const Tracer& tracer = Tracer::Global();
  std::vector<Entry> metrics;
  std::string not_exercised;
  for (const MetricSpec& spec :
       options_.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = metrics_.find(spec.name);
    if (it != metrics_.end()) {
      metrics.push_back({spec.name, it->second, spec.unit});
    } else if (options_.trace) {
      metrics.push_back({spec.name, 0.0, spec.unit});
      not_exercised += std::string(not_exercised.empty() ? "" : " ") +
                       spec.name;
    } else {
      Die(std::string("end-to-end metric ") + spec.name + " was not measured");
    }
  }
  if (!not_exercised.empty()) Note("not exercised (reported 0)", not_exercised);
  std::string fingerprint =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\", \"compiler\": \"" +
      JsonEscape(HTGBENCH_COMPILER) + "\", \"build_type\": \"" +
      HTGBENCH_BUILD_TYPE + "\", \"source\": \"" + JsonEscape(SourceId()) +
      "\", \"workload\": \"" + options_.workload +
      "\", \"seed\": " + std::to_string(options_.seed) +
      ", \"scale\": " + JsonNum(options_.scale) +
      ", \"seconds\": " + JsonNum(options_.seconds) +
      ", \"trace\": " + (options_.trace ? "1" : "0") +
      ", \"part\": " + std::to_string(options_.part) + "}";

  printf("== htgbench %s seed %llu (%s run) ==\n", options_.workload.c_str(),
         static_cast<unsigned long long>(options_.seed),
         options_.trace ? "traced" : "untraced");
  printf("fingerprint %s\n", fingerprint.c_str());
  for (const auto& [key, text] : notes_) {
    printf("  %-28s %s\n", key.c_str(), text.c_str());
  }
  printf("series (per rep, in order measured):\n");
  for (const std::string& line : series_lines_) printf("%s\n", line.c_str());
  printf("figures:\n");
  for (const Entry& e : info_) {
    printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  printf("%s metrics:\n", options_.trace ? "per-layer" : "end-to-end");
  for (const Entry& e : metrics) {
    printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::map<std::string, Tracer::Totals> spans;
  if (options_.trace) {
    spans = tracer.Summarize();
    printf("spans (%zu recorded): name, count, total ms, self ms\n",
           tracer.span_count());
    for (const auto& [name, t] : spans) {
      printf("  %-36s %8llu %12.3f %12.3f\n", name.c_str(),
             static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
  }
  printf("checks:\n");
  for (const auto& [name, verdict] : checker_->checks()) {
    printf("  %-28s %s%s\n", name.c_str(), verdict.first ? "pass" : "FAIL",
           options_.selftest
               ? (verdict.second ? "  (rejects a wrong expected value)"
                                 : "  (DOES NOT reject a wrong expected value)")
               : "");
  }
  const double failed_frac =
      checker_->attempted() == 0
          ? 0
          : static_cast<double>(checker_->failed()) / checker_->attempted();
  printf("failed_frac %.6f (%llu of %llu operations)\n", failed_frac,
         static_cast<unsigned long long>(checker_->failed()),
         static_cast<unsigned long long>(checker_->attempted()));

  auto entries_json = [](const std::vector<Entry>& entries) {
    std::string out = "{";
    for (size_t i = 0; i < entries.size(); ++i) {
      out += (i ? ", \"" : "\"") + JsonEscape(entries[i].name) +
             "\": {\"value\": " + JsonNum(entries[i].value) +
             ", \"unit\": \"" + entries[i].unit + "\"}";
    }
    return out + "}";
  };
  std::string checks = "{";
  bool first = true;
  for (const auto& [name, verdict] : checker_->checks()) {
    checks += std::string(first ? "" : ", ") + "\"" + name +
              "\": {\"pass\": " + (verdict.first ? "true" : "false") +
              ", \"rejects_wrong_expected\": " +
              (verdict.second ? "true" : "false") + "}";
    first = false;
  }
  checks += "}";
  std::string notes = "{";
  for (size_t i = 0; i < notes_.size(); ++i) {
    notes += (i ? ", \"" : "\"") + JsonEscape(notes_[i].first) + "\": \"" +
             JsonEscape(notes_[i].second) + "\"";
  }
  notes += "}";
  std::string span_json = "{";
  first = true;
  for (const auto& [name, t] : spans) {
    span_json += std::string(first ? "" : ", ") + "\"" + name +
                 "\": {\"count\": " + std::to_string(t.count) +
                 ", \"total_ms\": " + JsonNum(t.total_ms) +
                 ", \"self_ms\": " + JsonNum(t.self_ms) + "}";
    first = false;
  }
  span_json += "}";
  std::string series = "[";
  for (size_t i = 0; i < series_json_.size(); ++i) {
    series += (i ? ",\n    " : "\n    ") + series_json_[i];
  }
  series += "]";

  const std::string stem =
      options_.out_dir + "/" + options_.workload + "-s" +
      std::to_string(options_.seed) + "-t" + (options_.trace ? "1" : "0") +
      (options_.part >= 0 ? "-p" + std::to_string(options_.part) : "");
  if (options_.trace) tracer.WriteJson(stem + ".trace.json");
  {
    std::ofstream out(stem + ".report.json", std::ios::binary);
    out << "{\"fingerprint\": " << fingerprint
        << ",\n \"metrics\": " << entries_json(metrics)
        << ",\n \"figures\": " << entries_json(info_)
        << ",\n \"notes\": " << notes << ",\n \"checks\": " << checks
        << ",\n \"spans\": " << span_json << ",\n \"series\": " << series
        << ",\n \"attempted\": " << checker_->attempted()
        << ", \"failed\": " << checker_->failed()
        << ", \"failed_frac\": " << JsonNum(failed_frac)
        << ", \"correct\": " << (checker_->correct() ? "true" : "false")
        << "}\n";
    if (!out) Die("write " + stem + ".report.json");
  }
  printf("report %s.report.json\n", stem.c_str());
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         checker_->correct() ? "true" : "false",
         static_cast<unsigned long long>(std::max<uint64_t>(
             1, checker_->attempted())),
         static_cast<unsigned long long>(checker_->failed()),
         entries_json(metrics).c_str());
  fflush(stdout);
}

// ---- work directory ----------------------------------------------------------

WorkDir::WorkDir(const Options& options)
    : path_(std::filesystem::absolute(options.out_dir + "/work-" +
                                      options.workload)
                .string()) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) Die("create " + path_ + ": " + ec.message());
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string WorkDir::Fresh(const std::string& tag) {
  return path_ + "/" + tag + "-" + std::to_string(counter_++);
}

}  // namespace htgbench
