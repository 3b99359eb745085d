#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/basic_ops.h"
#include "exec/operator.h"

namespace htg::exec {

// ---------------------------------------------------------------------------
// Morsel-driven scheduling (the paper's intra-query parallelism, Fig. 9,
// generalized). A morsel is a contiguous page range of a heap scan — small
// enough (~tens of pages) that workers draining a shared counter balance
// load even under skewed predicates, where the old static page-range
// partitioning stalled on the unlucky partition.
// ---------------------------------------------------------------------------

// Default morsel size. Chosen so a morsel is a few hundred KB of pages:
// big enough to amortize per-morsel pipeline setup, small enough that
// DOP workers stay busy until the very end of the scan.
inline constexpr size_t kDefaultMorselPages = 32;

// Splits [0, num_pages) into morsels of `morsel_pages` pages (last one
// may be short). Empty input yields no morsels.
std::vector<Morsel> MakeMorsels(size_t num_pages, size_t morsel_pages);

// Picks a morsel size for a table of `num_pages` pages: kDefaultMorselPages,
// shrunk so that `dop` workers see several morsels each (work stealing
// needs slack to balance).
size_t ChooseMorselPages(size_t num_pages, int dop);

// Runs fn(worker, morsel) for every morsel index in [0, num_morsels),
// drained from a shared counter by `dop` workers. Worker ids are dense in
// [0, dop) so callers can keep per-worker state (partial aggregates, eval
// contexts). The calling thread participates as one of the workers, which
// makes nested use from inside a pool task deadlock-free. After the first
// error, remaining morsels are claimed but skipped; the first error (by
// worker index) is returned.
Status ParallelDrainMorsels(ThreadPool* pool, int dop, size_t num_morsels,
                            const std::function<Status(int, size_t)>& fn);

// ---------------------------------------------------------------------------
// Exchanges. A parallel plan is the serial plan with two markers in it: an
// exchange ("Gather Streams") over the serial subtree
// `Filter? -> CrossApply* -> Distribute Streams -> Table Scan`. The
// exchange opens that one subtree once per morsel, each time with a worker
// copy of the ExecContext carrying the morsel; the scan reads only the
// morsel's pages. Plan nodes are immutable and their stats atomic, so the
// concurrent opens need no per-morsel operators and accumulate into the
// one tree EXPLAIN ANALYZE renders.
// ---------------------------------------------------------------------------

// The worker side of an exchange: "Parallelism (Distribute Streams)" over
// the heap scan it splits into morsels, mirroring the SQL Server showplan
// the paper reproduces. It is the one place a parallel plan keeps its DOP
// and morsel size; the exchange above reads both from it. At run time it
// passes its scan through; opening it without a morsel in the context
// (outside an exchange) is an Internal error. `dop` is the effective
// degree (already clamped to the morsel count at plan time), so EXPLAIN
// output is deterministic and golden-testable.
class DistributeStreamsOp : public Operator {
 public:
  DistributeStreamsOp(OperatorPtr scan, int dop, size_t morsel_pages);

  const Schema& output_schema() const override {
    return scan_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {scan_.get()};
  }
  int64_t EstimateRows() const override { return scan_->EstimateRows(); }

  int dop() const { return dop_; }
  size_t morsel_pages() const { return morsel_pages_; }
  // The scanned table when the scan is a TableScanOp, else nullptr.
  catalog::TableDef* table() const;

 private:
  OperatorPtr scan_;
  int dop_;
  size_t morsel_pages_;
};

// The Distribute Streams marker at the bottom of an exchange's serial
// subtree (a chain of single-child operators), or nullptr.
const DistributeStreamsOp* FindDistribute(const Operator* subtree);

// One open of an exchange: the morsels it dispatches and the worker count
// (the marker's DOP, clamped to the morsel count).
struct MorselSplit {
  std::vector<Morsel> morsels;
  int dop = 1;
};

// Seals the heap under `distribute` and splits it into morsels of the
// marker's size. Internal when there is no marker over a heap scan.
Result<MorselSplit> SplitMorsels(const DistributeStreamsOp* distribute);

// The exchange's run loop: split.dop workers drain split.morsels off a
// shared counter; each opens `subtree` with its own copy of `ctx`
// carrying the morsel and hands the stream to consume(worker, morsel
// index, worker context, stream). Under collect_stats, `stats` gets each
// worker's morsel, row and batch counts.
Status OpenPerMorsel(
    Operator* subtree, const MorselSplit& split, ExecContext* ctx,
    OperatorStats* stats,
    const std::function<Status(int, size_t, ExecContext*,
                               storage::RowIterator*)>& consume);

// ---------------------------------------------------------------------------
// ParallelMapOp ("Parallelism (Gather Streams)" over a stateless
// pipeline): runs its serial subtree per morsel on DOP workers and gathers
// the result rows in morsel (i.e. heap) order, so the output matches the
// serial plan's. This is what parallelizes the CROSS APPLY read-alignment
// pipelines end to end.
// ---------------------------------------------------------------------------
class ParallelMapOp : public Operator {
 public:
  explicit ParallelMapOp(OperatorPtr child);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Result<std::unique_ptr<storage::RowIterator>> OpenImpl(ExecContext* ctx) override;
  std::string Describe() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  int64_t EstimateRows() const override { return child_->EstimateRows(); }

 private:
  OperatorPtr child_;
  const DistributeStreamsOp* distribute_;  // in child_'s subtree
};

}  // namespace htg::exec
