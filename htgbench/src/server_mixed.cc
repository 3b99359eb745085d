// server-mixed: writes beside reads over the wire. An in-process
// htgdb-server with 4 handler threads serves a closed loop of 4 clients
// (an analyst's session waits for each reply). Statement classes:
//   lookup  key-range read on the clustered AlignmentPos (a genome-browser
//           locus read)
//   meta    a tiny metadata read, ad hoc and as Prepare/Execute
//   write   autocommit INSERT, each client loading its own lane into the
//           shared LaneRead table
//   txn     BEGIN; INSERT x4; COMMIT into the session's own LaneTxn<c>:
//           the engine detects write-write conflicts per table, so a
//           transaction beside other writers of its table could abort at
//           random; one that aborts all the same counts as failed and is
//           retried
//   report  a rare Query 1-style aggregate over the Read table
//   count   a snapshot COUNT(*) of LaneRead, which must never decrease
// Per-statement exec work is small, so wire, session, locks, MVCC and
// parse/plan dominate. Statements run at DOP 1.
//
// Conflict granularity is measured apart from the loop by a scripted
// probe (ConflictProbe), whose outcome does not depend on timing.
//
// The mix (kCycle) is an assumption, not a measured trace: a quarter of
// the slots write, as in the mixed arm of bench/bench_server.cc (three
// readers and one writer over four clients); the read weights, the lookup
// width and the transaction size are chosen so that each class has enough
// samples per run. The README gives the reason for each.

#include <algorithm>
#include <map>
#include <thread>

#include "genomics/aligner.h"
#include "genomics/nucleotide.h"
#include "server/client.h"
#include "server/server.h"
#include "util.h"
#include "workflow/loaders.h"

namespace htgbench {
namespace {

constexpr int kClients = 4;
constexpr int kSetupReps = 5;
constexpr int kTxnInserts = 4;
// Attempts of one transaction before it is given up.
constexpr int kTxnAttempts = 5;
constexpr int kConflictProbes = 16;
constexpr int64_t kLookupWidth = 300;
constexpr int kSamples = 64;
constexpr double kSliceSeconds = 1.0;

const char* const kReport =
    "SELECT TOP 10 ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, "
    "COUNT(*) AS freq, short_read_seq FROM Read WHERE CHARINDEX('N', "
    "short_read_seq) = 0 GROUP BY short_read_seq ORDER BY rank";

// One cycle of a session's statements: each class a fixed number of
// times, in an order the session shuffles per cycle.
enum class Op { kLookup, kMeta, kPrepared, kWrite, kTxn, kReport, kCount };
constexpr Op kCycle[] = {
    Op::kLookup,   Op::kLookup,   Op::kLookup,   Op::kLookup, Op::kLookup,
    Op::kLookup,   Op::kLookup,   Op::kMeta,     Op::kMeta,   Op::kMeta,
    Op::kPrepared, Op::kPrepared, Op::kPrepared, Op::kWrite,  Op::kWrite,
    Op::kWrite,    Op::kWrite,    Op::kTxn,      Op::kReport, Op::kCount};
constexpr size_t kCycleLength = sizeof(kCycle) / sizeof(kCycle[0]);

std::string MetaSql(int sample) {
  return "SELECT name, flowcell, lane FROM Sample WHERE s_e_id = 1 AND "
         "s_sg_id = 1 AND s_id = " +
         std::to_string(sample);
}

std::string LookupSql(int chromosome, int64_t pos) {
  return "SELECT a_pos, seq FROM AlignmentPos WHERE a_g_id = " +
         std::to_string(chromosome) + " AND a_pos >= " + std::to_string(pos) +
         " AND a_pos < " + std::to_string(pos + kLookupWidth);
}

// The clustered rows per chromosome, sorted by position: the lookup
// oracle.
using Locus = std::vector<std::pair<int64_t, std::string>>;

std::vector<std::pair<int64_t, std::string>> OracleLookup(
    const std::vector<Locus>& loci, int chromosome, int64_t pos) {
  const Locus& l = loci[chromosome];
  auto it = std::lower_bound(l.begin(), l.end(),
                             std::make_pair(pos, std::string()));
  std::vector<std::pair<int64_t, std::string>> out;
  for (; it != l.end() && it->first < pos + kLookupWidth; ++it) {
    out.push_back(*it);
  }
  return out;
}

// Raw latencies of one client.
struct ClientStats {
  Series lookup_ms, meta_us, prepared_us, write_us, txn_us, report_ms,
      count_us;
  uint64_t statements = 0;
  uint64_t committed_rows = 0;  // autocommit, in LaneRead
  uint64_t txn_rows = 0;        // in the session's LaneTxn<c>
  uint64_t txn_aborts = 0;
};

std::string Quoted(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

struct Shared {
  const std::vector<Locus>* loci = nullptr;
  int chromosomes = 0;
  int64_t bases = 0;
  std::map<std::string, int64_t> report_freq;  // oracle bins
  std::vector<int64_t> report_top;              // top-10 frequencies
  const std::vector<htg::genomics::ShortRead>* lane = nullptr;
  Checker* checker = nullptr;
};

htg::Result<bool> StatusAsResult(const htg::Status& s) {
  if (!s.ok()) return s;
  return true;
}

// One analyst's connection. The loop runs in slices (so a traced run can
// trace every other one); RunUntil resumes the same connection and
// statement sequence.
class Session {
 public:
  Session(int id, uint16_t port, const Shared& sh, uint64_t seed)
      : id_(id),
        sh_(sh),
        rng_(seed),
        cycle_(std::begin(kCycle), std::end(kCycle)) {
    client_ = CheckOk(htg::server::Client::Connect(
                          port, "htgbench-" + std::to_string(id)),
                      "connect");
    stmt_ = CheckOk(client_->Prepare(MetaSql(id + 1)), "prepare meta");
  }
  ~Session() {
    HTG_IGNORE_STATUS(client_->CloseStatement(stmt_));
    client_->Goodbye();
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Closed loop until `deadline_ns`.
  void RunUntil(int64_t deadline_ns);
  const ClientStats& stats() const { return st_; }

 private:
  // One wire call (one statement) under a span; records its latency in
  // `unit` per second (1e3 = ms, 1e6 = us) and counts a failed operation
  // on error.
  template <typename T, typename Fn>
  std::optional<T> Call(const char* what, Series* into, double unit,
                        Fn&& fn) {
    sh_.checker->Attempt();
    st_.statements += 1;
    const int64_t start = NowNs();
    htg::Result<T> result = [&] {
      Tracer::Span span(&Tracer::Global(), "server.Client");
      return fn();
    }();
    if (!result.ok()) {
      sh_.checker->Fail(std::string(what) + ": " +
                        result.status().ToString());
      return std::nullopt;
    }
    if (into != nullptr) into->Add((NowNs() - start) * 1e-9 * unit);
    return std::move(*result);
  }
  std::string InsertSql(const std::string& table);
  void CheckMeta(const htg::server::ClientResult& r, int sample);
  void Count();
  void Lookup();
  void Meta(bool prepared);
  void Write();
  void Txn();
  void ReportQuery();

  const int id_;
  const Shared& sh_;
  Rng rng_;
  std::vector<Op> cycle_;
  std::unique_ptr<htg::server::Client> client_;
  uint64_t stmt_ = 0;
  uint64_t op_ = 0;
  uint64_t next_row_ = 0;
  int64_t last_count_ = 0;
  ClientStats st_;
};

std::string LaneInsertSql(const std::string& table, int lane, uint64_t row,
                          const htg::genomics::ShortRead& r) {
  return "INSERT INTO " + table + " VALUES (" + std::to_string(lane) + ", " +
         std::to_string(row) + ", " + Quoted(r.sequence) + ", " +
         Quoted(r.quality) + ")";
}

std::string TxnTable(int session) {
  return "LaneTxn" + std::to_string(session);
}

std::string Session::InsertSql(const std::string& table) {
  const htg::genomics::ShortRead& r =
      (*sh_.lane)[(id_ * 7919 + next_row_) % sh_.lane->size()];
  return LaneInsertSql(table, id_, next_row_++, r);
}

void Session::CheckMeta(const htg::server::ClientResult& r, int sample) {
  sh_.checker->Verify("meta", [&](bool corrupt) {
    const std::string want =
        "sample-" + std::to_string(sample + (corrupt ? 1 : 0));
    return r.rows.size() == 1 && r.rows[0][0].AsString() == want;
  });
}

void Session::Count() {
  Tracer::Span span(&Tracer::Global(), "harness.count");
  auto r = Call<htg::server::ClientResult>(
      "count", &st_.count_us, 1e6,
      [&] { return client_->Query("SELECT COUNT(*) FROM LaneRead"); });
  if (!r) return;
  const int64_t n = r->rows.empty() ? -1 : r->rows[0][0].AsInt64();
  // Snapshots only grow, and include this session's own commits.
  sh_.checker->Verify("snapshot_monotone", [&](bool corrupt) {
    const int64_t floor = std::max<int64_t>(
        last_count_, static_cast<int64_t>(st_.committed_rows));
    return n >= floor + (corrupt ? n - floor + 1 : 0);
  });
  last_count_ = std::max(last_count_, n);
}

void Session::Lookup() {
  Tracer::Span span(&Tracer::Global(), "harness.lookup");
  const int chrom = static_cast<int>(rng_.Below(sh_.chromosomes));
  const int64_t pos = static_cast<int64_t>(rng_.Below(sh_.bases));
  auto r = Call<htg::server::ClientResult>(
      "lookup", &st_.lookup_ms, 1e3,
      [&] { return client_->Query(LookupSql(chrom, pos)); });
  if (!r) return;
  std::vector<std::pair<int64_t, std::string>> got;
  for (const htg::Row& row : r->rows) {
    got.emplace_back(row[0].AsInt64(), row[1].AsString());
  }
  std::sort(got.begin(), got.end());
  sh_.checker->Verify("lookup", [&](bool corrupt) {
    auto want = OracleLookup(*sh_.loci, chrom, pos);
    if (corrupt) want.emplace_back(pos, "N");
    return got == want;
  });
}

void Session::Meta(bool prepared) {
  Tracer::Span span(&Tracer::Global(), "harness.meta");
  if (prepared) {
    auto r = Call<htg::server::ClientResult>(
        "meta prepared", &st_.prepared_us, 1e6,
        [&] { return client_->Execute(stmt_); });
    if (r) CheckMeta(*r, id_ + 1);
    return;
  }
  const int sample = 1 + static_cast<int>(rng_.Below(kSamples));
  auto r = Call<htg::server::ClientResult>(
      "meta", &st_.meta_us, 1e6,
      [&] { return client_->Query(MetaSql(sample)); });
  if (r) CheckMeta(*r, sample);
}

void Session::Write() {
  Tracer::Span span(&Tracer::Global(), "harness.write");
  if (Call<htg::server::ClientResult>(
          "write", &st_.write_us, 1e6,
          [&] { return client_->Query(InsertSql("LaneRead")); })) {
    st_.committed_rows += 1;
  }
}

// Only this session writes its LaneTxn<c>, so no write-write conflict
// can abort the transaction. An attempt that aborts all the same (any
// failed statement) counts as one failed operation and is retried; the
// latency spans every attempt.
void Session::Txn() {
  Tracer::Span span(&Tracer::Global(), "harness.txn");
  const std::string table = TxnTable(id_);
  const int64_t start = NowNs();
  for (int attempt = 0; attempt < kTxnAttempts; ++attempt) {
    bool ok = Call<bool>("begin", nullptr, 1, [&] {
                return StatusAsResult(client_->Begin());
              }).has_value();
    for (int k = 0; ok && k < kTxnInserts; ++k) {
      ok = Call<htg::server::ClientResult>(
               "txn insert", nullptr, 1,
               [&] { return client_->Query(InsertSql(table)); })
               .has_value();
    }
    if (ok) {
      ok = Call<bool>("commit", nullptr, 1, [&] {
             return StatusAsResult(client_->Commit());
           }).has_value();
    }
    if (ok) {
      st_.txn_rows += kTxnInserts;
      st_.txn_us.Add((NowNs() - start) * 1e-3);
      return;
    }
    // The server has already ended a transaction whose statement failed;
    // this only makes sure no transaction stays open.
    HTG_IGNORE_STATUS(client_->Abort());
    st_.txn_aborts += 1;
  }
}

void Session::ReportQuery() {
  Tracer::Span span(&Tracer::Global(), "harness.report");
  auto r = Call<htg::server::ClientResult>(
      "report", &st_.report_ms, 1e3, [&] { return client_->Query(kReport); });
  if (!r) return;
  sh_.checker->Verify("report", [&](bool corrupt) {
    std::vector<int64_t> top;
    for (const htg::Row& row : r->rows) {
      auto it = sh_.report_freq.find(row[2].AsString());
      if (it == sh_.report_freq.end() || it->second != row[1].AsInt64()) {
        return false;
      }
      top.push_back(row[1].AsInt64());
    }
    std::vector<int64_t> want = sh_.report_top;
    if (corrupt) want[0] += 1;
    return top == want;
  });
}

void Session::RunUntil(int64_t deadline_ns) {
  for (; NowNs() < deadline_ns; ++op_) {
    Tracer::Global().BeginRequest();
    const size_t slot = op_ % kCycleLength;
    if (slot == 0) {
      for (size_t i = kCycleLength - 1; i > 0; --i) {
        std::swap(cycle_[i], cycle_[rng_.Below(i + 1)]);
      }
    }
    switch (cycle_[slot]) {
      case Op::kLookup: Lookup(); break;
      case Op::kMeta: Meta(false); break;
      case Op::kPrepared: Meta(true); break;
      case Op::kWrite: Write(); break;
      case Op::kTxn: Txn(); break;
      case Op::kReport: ReportQuery(); break;
      case Op::kCount: Count(); break;
    }
  }
}

void Merge(const Series& from, Series* to) {
  for (double v : from.values()) to->Add(v);
}

struct ProbeResult {
  int aborts = 0;
  uint64_t committed_rows = 0;  // in LaneRead
};

// Conflict granularity, scripted so that its outcome does not depend on
// timing: connection A begins a transaction, B commits an autocommit
// INSERT into LaneRead, then A inserts a row of its own into LaneRead and
// commits. The rows are distinct, so only a conflict check coarser than a
// row aborts A; today's table-level first-writer-wins does so every time.
// A typed kAborted is what the probe measures, not a failed operation;
// any other error is one.
ProbeResult ConflictProbe(uint16_t port,
                          const std::vector<htg::genomics::ShortRead>& lane,
                          Checker* checker) {
  std::unique_ptr<htg::server::Client> a = CheckOk(
      htg::server::Client::Connect(port, "htgbench-probe-a"), "connect");
  std::unique_ptr<htg::server::Client> b = CheckOk(
      htg::server::Client::Connect(port, "htgbench-probe-b"), "connect");
  ProbeResult out;
  for (int i = 0; i < kConflictProbes; ++i) {
    const htg::genomics::ShortRead& r = lane[i % lane.size()];
    checker->Attempt(4);  // begin, B's insert, A's insert, commit
    const htg::Status begun = a->Begin();
    if (!begun.ok()) {
      checker->Fail("probe begin: " + begun.ToString());
      continue;
    }
    auto other = b->Query(LaneInsertSql("LaneRead", kClients + 1, i, r));
    if (other.ok()) {
      out.committed_rows += 1;
    } else {
      checker->Fail("probe autocommit insert: " + other.status().ToString());
    }
    auto own = a->Query(LaneInsertSql("LaneRead", kClients, i, r));
    const htg::Status s = own.ok() ? a->Commit() : own.status();
    if (s.ok()) {
      out.committed_rows += 1;
      continue;
    }
    if (s.code() == htg::StatusCode::kAborted) {
      out.aborts += 1;
    } else {
      checker->Fail("probe transaction: " + s.ToString());
    }
    // The server has already ended the failed transaction; this only
    // makes sure none stays open.
    HTG_IGNORE_STATUS(a->Abort());
  }
  a->Goodbye();
  b->Goodbye();
  return out;
}

}  // namespace

void RunServerMixed(const Options& o, Checker* checker, Report* report) {
  const uint64_t pos_reads =
      std::max<uint64_t>(400, static_cast<uint64_t>(20000 * o.scale));
  const uint64_t report_reads =
      std::max<uint64_t>(400, static_cast<uint64_t>(10000 * o.scale));
  const uint64_t bases =
      std::max<uint64_t>(5000, static_cast<uint64_t>(100000 * o.scale));
  const int chromosomes = 2;
  Rng rng(o.seed);
  const htg::genomics::ReferenceGenome ref =
      MakeReference(&rng, chromosomes, bases);
  const std::vector<htg::genomics::ShortRead> pos_lane =
      MakeReseqReads(&rng, ref, pos_reads, 36, 1);
  const std::vector<htg::genomics::ShortRead> report_lane =
      MakeDgeReads(&rng, ref, report_reads, 2000, 21);
  const std::vector<htg::genomics::ShortRead> write_lane =
      MakeReseqReads(&rng, ref, 4096, 36, 3);
  WorkDir work(o);

  Shared sh;
  sh.chromosomes = chromosomes;
  sh.bases = static_cast<int64_t>(bases);
  sh.lane = &write_lane;
  sh.checker = checker;
  {
    const Bins bins = OracleBins(report_lane);
    for (const auto& [freq, seq] : bins) sh.report_freq[seq] = freq;
    for (size_t i = 0; i < 10 && i < bins.size(); ++i) {
      sh.report_top.push_back(bins[bins.size() - 1 - i].first);
    }
  }
  std::unique_ptr<htg::genomics::Aligner> aligner;
  {
    Tracer::Span span(&Tracer::Global(), "genomics.Aligner");
    aligner = std::make_unique<htg::genomics::Aligner>(
        &ref, htg::genomics::AlignerOptions{});
  }

  // Set-up: align the lane, load the clustered AlignmentPos, the Read and
  // Sample tables, then start the server. Repeated; the last is measured.
  Calibration calib;
  Measured setup_s, load_rate, align_rate;
  std::vector<Locus> loci(chromosomes);
  Db db;
  std::unique_ptr<htg::server::Server> server;
  htg::server::ServerOptions server_options;
  server_options.threads = kClients;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->Shutdown();
    server.reset();
    db = Db();
    const double f = calib.Measure();
    Tracer::Global().BeginRequest();
    Tracer::Span span(&Tracer::Global(), "harness.setup");
    const int64_t start = NowNs();
    db = OpenDb(work.Fresh("db"), 0, 1);
    htg::Database* d = db.db.get();
    int64_t t = NowNs();
    std::vector<htg::genomics::Alignment> alignments;
    {
      Tracer::Span align(&Tracer::Global(), "genomics.AlignBatch");
      alignments = aligner->AlignBatch(pos_lane);
    }
    align_rate.AddRate(pos_lane.size() / ((NowNs() - t) * 1e-9), f);
    RunSql(db.engine.get(), "harness.create",
           "CREATE TABLE AlignmentPos (a_g_id INT NOT NULL, a_pos BIGINT NOT "
           "NULL, seq VARCHAR(300) NOT NULL, qual VARCHAR(300)) CLUSTER BY "
           "(a_g_id, a_pos)",
           checker);
    RunSql(db.engine.get(), "harness.create",
           "CREATE TABLE LaneRead (lane INT, r_id BIGINT, seq VARCHAR(64), "
           "qual VARCHAR(64))",
           checker);
    for (int c = 0; c < kClients; ++c) {
      RunSql(db.engine.get(), "harness.create",
             "CREATE TABLE " + TxnTable(c) +
                 " (lane INT, r_id BIGINT, seq VARCHAR(64), qual "
                 "VARCHAR(64))",
             checker);
    }
    htg::catalog::TableDef* table =
        CheckOk(d->GetTable("AlignmentPos"), "AlignmentPos");
    for (Locus& l : loci) l.clear();
    t = NowNs();
    {
      Tracer::Span load(&Tracer::Global(), "storage.ClusteredInsert");
      for (const htg::genomics::Alignment& a : alignments) {
        const htg::genomics::ShortRead& r = pos_lane[a.read_id];
        std::string seq = r.sequence;
        std::string qual = r.quality;
        if (a.reverse_strand) {
          seq = htg::genomics::ReverseComplement(seq);
          std::reverse(qual.begin(), qual.end());
        }
        loci[a.chromosome].emplace_back(a.position, seq);
        CheckOk(d->InsertRow(table, htg::Row{htg::Value::Int32(a.chromosome),
                                             htg::Value::Int64(a.position),
                                             htg::Value::String(seq),
                                             htg::Value::String(qual)}),
                "insert AlignmentPos");
      }
    }
    load_rate.AddRate(alignments.size() / ((NowNs() - t) * 1e-9), f);
    {
      Tracer::Span load(&Tracer::Global(), "workflow.LoadReads");
      CheckOk(htg::workflow::LoadReads(d, "Read", report_lane, {}),
              "load reads");
    }
    CheckOk(htg::workflow::LoadReferenceCatalog(d, "ReferenceSequence", ref),
            "load reference catalog");
    std::string samples = "INSERT INTO Sample VALUES ";
    for (int s = 1; s <= kSamples; ++s) {
      samples += (s > 1 ? ", (1, 1, " : "(1, 1, ") + std::to_string(s) +
                 ", 'sample-" + std::to_string(s) + "', 855, " +
                 std::to_string(1 + s % 8) + ")";
    }
    RunSql(db.engine.get(), "harness.insert", samples, checker);
    server = std::make_unique<htg::server::Server>(d, server_options);
    CheckOk(server->Start(), "server start");
    setup_s.AddTime((NowNs() - start) * 1e-9, f);
  }
  for (Locus& l : loci) std::sort(l.begin(), l.end());
  sh.loci = &loci;

  // The closed loop: kClients sessions in slices of kSliceSeconds. The
  // kernel cannot run inside the four-session loop, so it runs before each
  // slice while the sessions wait, and the loop's times are converted with
  // one factor per process: the median of all the process's kernel runs,
  // set-up and slices. A traced run traces every other slice and compares
  // their throughput.
  std::vector<std::unique_ptr<Session>> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(std::make_unique<Session>(
        c, server->port(), sh, o.seed * 1000 + static_cast<uint64_t>(c)));
  }
  const bool trace = o.trace;
  CounterWindow window;
  Series traced_slices, untraced_slices, slice_rate;
  double slice_seconds = 0;
  uint64_t last_statements = 0;
  auto statements_so_far = [&] {
    uint64_t n = 0;
    for (const auto& s : sessions) n += s->stats().statements;
    return n;
  };
  const int64_t loop_start = NowNs();
  for (int slice = 0; (NowNs() - loop_start) * 1e-9 < o.seconds; ++slice) {
    const bool traced = trace && slice % 2 == 0;
    calib.Measure();
    Tracer::Global().set_enabled(traced);
    const int64_t start = NowNs();
    const int64_t deadline =
        start + static_cast<int64_t>(kSliceSeconds * 1e9);
    std::vector<std::thread> threads;
    for (auto& s : sessions) {
      threads.emplace_back([&s, deadline] { s->RunUntil(deadline); });
    }
    for (std::thread& t : threads) t.join();
    const double wall = (NowNs() - start) * 1e-9;
    Tracer::Global().set_enabled(trace);
    const uint64_t n = statements_so_far();
    slice_rate.Add((n - last_statements) / wall);
    slice_seconds += wall;
    (traced ? traced_slices : untraced_slices)
        .Add((n - last_statements) / wall);
    last_statements = n;
  }
  const double loop_s = (NowNs() - loop_start) * 1e-9;
  const double f = Calibration::kReferenceMs / calib.kernel_ms().Median();

  ClientStats all;
  std::vector<uint64_t> txn_rows;
  for (const auto& session : sessions) {
    const ClientStats& s = session->stats();
    Merge(s.lookup_ms, &all.lookup_ms);
    Merge(s.meta_us, &all.meta_us);
    Merge(s.prepared_us, &all.prepared_us);
    Merge(s.write_us, &all.write_us);
    Merge(s.txn_us, &all.txn_us);
    Merge(s.report_ms, &all.report_ms);
    Merge(s.count_us, &all.count_us);
    all.statements += s.statements;
    all.committed_rows += s.committed_rows;
    all.txn_rows += s.txn_rows;
    all.txn_aborts += s.txn_aborts;
    txn_rows.push_back(s.txn_rows);
  }
  // The server has one handler thread per session: close them first.
  sessions.clear();
  Series meta_all = all.meta_us;
  Merge(all.prepared_us, &meta_all);
  report->Note("data", std::to_string(pos_reads) + " reads aligned into "
                           "AlignmentPos; Read holds " +
                           std::to_string(report_reads) +
                           " DGE reads; " + std::to_string(kClients) +
                           " clients, " + std::to_string(kClients) +
                           " handler threads, DOP 1");
  report->Note("core_p50_ms", "lookup (key-range read on AlignmentPos)");
  report->Note("q1_dop1_p50_ms", "report (Query 1-style TOP 10) over the wire");
  report->AddSeries("calibration_ms", "ms", calib.kernel_ms());
  report->AddSeries("setup_s", "s", setup_s);
  report->AddSeries("load_rows_per_s", "1/s", load_rate);
  report->AddSeries("align_reads_per_s", "1/s", align_rate);
  report->AddSeries("lookup_ms", "ms", all.lookup_ms);
  report->AddSeries("meta_us", "us", meta_all);
  report->AddSeries("meta_prepared_us", "us", all.prepared_us);
  report->AddSeries("write_us", "us", all.write_us);
  report->AddSeries("txn_us", "us", all.txn_us);
  report->AddSeries("report_ms", "ms", all.report_ms);
  report->AddSeries("count_us", "us", all.count_us);
  report->AddSeries("stmts_per_s", "1/s", slice_rate);
  report->Info("load_rows_per_s", load_rate.ref.Median(), "1/s");
  report->Info("align_reads_per_s", align_rate.ref.Median(), "1/s");
  report->Info("loop_factor", f, "x");
  report->Info("lookup_p50_ms", all.lookup_ms.Median() * f, "ms");
  report->Info("lookup_p99_ms", all.lookup_ms.Percentile(0.99) * f, "ms");
  report->Info("meta_p50_us", meta_all.Median() * f, "us");
  report->Info("write_p50_us", all.write_us.Median() * f, "us");
  report->Info("write_p99_us", all.write_us.Percentile(0.99) * f, "us");
  report->Info("committed_rows", static_cast<double>(all.committed_rows),
               "count");
  report->Info("txn_rows", static_cast<double>(all.txn_rows), "count");
  report->Info("txn_aborts", static_cast<double>(all.txn_aborts), "count");
  report->Info("loop_s", loop_s, "s");

  const uint64_t commits = all.write_us.size() + all.txn_us.size();
  const double statements = static_cast<double>(all.statements);
  const htg::obs::HistogramSnapshot* waits =
      window.Histogram("server.lock.wait_ns");
  const double lock_wait_ns = waits != nullptr ? waits->sum : 0.0;
  const uint64_t timeouts = window.Counter("server.lock.timeouts");
  const uint64_t retries = window.Counter("server.statement.retries");
  // Client ABORTs and the server's own aborts of a failed transaction.
  const uint64_t aborted = window.Counter("server.txn.aborted") +
                           window.Counter("server.txn.auto_aborts");
  const uint64_t gc_sweeps = window.Counter("mvcc.gc.sweeps");
  const uint64_t gc_removed = window.Counter("mvcc.gc.entries_removed");
  const uint64_t wal_appends = window.Counter("wal.appends");
  const uint64_t syncs = window.Counter("vfs.sync.ops");

  const ProbeResult probe = ConflictProbe(server->port(), write_lane, checker);
  // Every committed insert is visible; no row of an aborted transaction
  // is.
  {
    std::unique_ptr<htg::server::Client> client =
        CheckOk(htg::server::Client::Connect(server->port(), "htgbench-final"),
                "connect");
    auto count = [&](const std::string& table) -> int64_t {
      checker->Attempt();
      auto r = client->Query("SELECT COUNT(*) FROM " + table);
      if (!r.ok()) {
        checker->Fail("final count: " + r.status().ToString());
        return -1;
      }
      return r->rows.empty() ? -1 : r->rows[0][0].AsInt64();
    };
    const int64_t shared = count("LaneRead");
    checker->Verify("final_count", [&](bool corrupt) {
      return shared == static_cast<int64_t>(all.committed_rows +
                                            probe.committed_rows) +
                           (corrupt ? 1 : 0);
    });
    for (int c = 0; c < kClients; ++c) {
      const int64_t own = count(TxnTable(c));
      const int64_t want =
          static_cast<int64_t>(txn_rows[static_cast<size_t>(c)]);
      checker->Verify("final_txn_count", [&](bool corrupt) {
        return own == want + (corrupt ? 1 : 0);
      });
    }
    client->Goodbye();
  }
  report->Info("conflict_probe_aborts", probe.aborts, "count");

  server->Shutdown();
  htg::Database* d = db.db.get();
  // Stored bytes of the tables against the FASTQ bytes of the reads
  // they hold.
  uint64_t stored_bytes = TableBytes(d, "AlignmentPos") +
                          TableBytes(d, "Read") + TableBytes(d, "LaneRead");
  for (int c = 0; c < kClients; ++c) {
    stored_bytes += TableBytes(d, TxnTable(c));
  }
  const uint64_t written_rows =
      all.committed_rows + all.txn_rows + probe.committed_rows;
  const double stored = static_cast<double>(stored_bytes);
  const double input = static_cast<double>(
      FastqBytes(pos_lane) + FastqBytes(report_lane) +
      FastqBytes(write_lane) * written_rows / write_lane.size());
  if (!trace) {
    report->Metric("setup_s", setup_s.ref.Median());
    report->Metric("q1_dop1_p50_ms", all.report_ms.Median() * f);
    report->Metric("core_p50_ms", all.lookup_ms.Median() * f);
    // Statements over the whole loop: a slice holds too few lookups for
    // its own rate to be steady.
    report->Metric("stmts_per_s", all.statements / slice_seconds / f);
    report->Metric("peak_rss_mb", PeakRssMb());
    report->Metric("stored_bytes_per_input_byte", stored / input);
    return;
  }
  report->Metric("trace.overhead_frac",
                 untraced_slices.Median() / traced_slices.Median() - 1.0);
  report->Metric("server.lock_wait_us_per_stmt",
                 lock_wait_ns * 1e-3 / statements);
  report->Metric("server.lock_timeouts_per_stmt", timeouts / statements);
  report->Metric("server.statement_retries_per_stmt", retries / statements);
  report->Metric("server.txn_aborted_per_stmt", aborted / statements);
  report->Metric("server.conflict_probe_abort_frac",
                 static_cast<double>(probe.aborts) / kConflictProbes);
  const double writes_k = (all.committed_rows + all.txn_rows) / 1000.0;
  report->Metric("mvcc.gc_sweeps_per_1k_writes",
                 writes_k > 0 ? gc_sweeps / writes_k : 0);
  report->Metric("mvcc.gc_entries_removed_per_1k_writes",
                 writes_k > 0 ? gc_removed / writes_k : 0);
  report->Metric("wal.appends_per_commit",
                 commits ? static_cast<double>(wal_appends) / commits : 0);
  report->Metric("vfs.sync_ops_per_commit",
                 commits ? static_cast<double>(syncs) / commits : 0);

  // Wire round trip: the same meta statement over one connection against
  // SqlEngine::Execute in process.
  {
    server = std::make_unique<htg::server::Server>(d, server_options);
    CheckOk(server->Start(), "server restart");
    std::unique_ptr<htg::server::Client> client = CheckOk(
        htg::server::Client::Connect(server->port(), "htgbench-rtt"),
        "connect");
    Series wire_us, local_us;
    const std::string sql = MetaSql(1);
    for (int i = 0; i < 300; ++i) {
      checker->Attempt(2);
      int64_t t = NowNs();
      {
        Tracer::Span span(&Tracer::Global(), "server.Client");
        CheckOk(client->Query(sql).status(), "wire meta");
      }
      wire_us.Add((NowNs() - t) * 1e-3);
      t = NowNs();
      {
        Tracer::Span span(&Tracer::Global(), "exec.Execute");
        CheckOk(db.engine->Execute(sql).status(), "in-process meta");
      }
      local_us.Add((NowNs() - t) * 1e-3);
    }
    client->Goodbye();
    server->Shutdown();
    report->Metric("server.rtt_us", wire_us.Median() - local_us.Median());
  }

  ProbeInputs in;
  in.db = d;
  in.engine = db.engine.get();
  in.reads = &report_lane;
  in.reference = &ref;
  in.work_dir = work.path();
  in.selects = {LookupSql(0, 1000), MetaSql(1), kReport};
  in.join_sql =
      "SELECT COUNT(*) FROM AlignmentPos JOIN ReferenceSequence ON a_g_id = "
      "g_id";
  in.join_left_sql = "SELECT COUNT(*) FROM AlignmentPos";
  in.join_right_sql = "SELECT COUNT(*) FROM ReferenceSequence";
  in.join_input_rows = loci[0].size() + loci[1].size() + chromosomes;
  in.probe_sql = LookupSql(0, 1000);
  RunLayerProbes(in, checker, report);
}

}  // namespace htgbench
