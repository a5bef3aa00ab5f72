// Fixed-size worker pool for embarrassingly-parallel sweeps.
//
// The radius-t engine evaluates one independent verdict per node, so the only
// parallel primitive the codebase needs is a blocking parallel-for over a
// dense index range.  ThreadPool provides exactly one scheduler for it: the
// WORK-STEALING split.  [0, n) is cut into fixed-size chunks claimed from a
// shared atomic cursor (chunked claiming — the degenerate all-stealing
// deque).  Assignment is first-come, so a worker that drew light chunks
// immediately takes load off a straggler; per-worker scratch stays valid
// because `worker` names the executing slot, and callers whose writes are
// per-index disjoint (the sweep) get bit-identical results at every thread
// count even though the assignment is not deterministic.  A 1-thread pool
// spawns no threads: the caller drains the chunks in index order, the same
// traversal as a plain loop.  Per-job steal/chunk counts and per-worker busy
// time come back through last_range_stats().
//
// Exceptions thrown by `fn` are captured (first one wins) and rethrown on
// the calling thread after every claimant has finished, so the pool is never
// left with a wedged worker.  A worker stops claiming after its first
// exception; the remaining chunks drain to its peers.
// Locking discipline is compiler-checked: every cross-thread member is
// GUARDED_BY(mu_) and Clang's thread-safety analysis (util/thread_annotations
// .hpp, the CI `analysis` job) rejects unlocked access paths; the one
// intentionally unguarded shared member is the chunk cursor, an explicit
// relaxed atomic (uniqueness of the claimed index is all it must provide —
// the job hand-off mutex supplies every happens-before edge).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pls::util {

/// Tuning knobs of a work-stealing range job.
struct RangeOptions {
  /// Indices per claimed chunk; 0 picks a heuristic (about 16 chunks per
  /// execution slot, clamped to >= 1) — small enough to rebalance a skewed
  /// instance, large enough that the shared-cursor fetch_add is noise.
  std::size_t chunk = 0;
  /// Cooperative cancellation: polled before every chunk claim.  A claimant
  /// that observes a cancelled token stops claiming; the job completes with
  /// CancelledError iff the range was left uncovered and no chunk threw a
  /// real exception (a real exception always wins — the caller learns what
  /// actually broke, not that someone also pulled the plug).  If every chunk
  /// was already claimed and executed when the cancel landed, the range is
  /// complete and nothing is thrown.  Must outlive the job.
  const CancelToken* cancel = nullptr;
};

/// What the most recent range job actually did, aggregated at its finish:
/// the observability feed for the sweep scheduler.
struct RangeStats {
  std::uint64_t chunks = 0;  ///< chunks executed across all workers
  std::uint64_t steals = 0;  ///< chunks run by a slot other than the chunk's
                             ///< home under a contiguous split (chunk_home)
                             ///< — the load such a split would misplace
  bool cancelled = false;    ///< range abandoned with chunks unexecuted
                             ///< (RangeOptions::cancel observed in time)
  std::vector<std::uint64_t> worker_busy_ns;  ///< per-slot claim-loop wall
                                              ///< time (size thread_count())
};

class ThreadPool {
 public:
  /// A pool with `threads` >= 1 execution slots (including the caller).
  /// `threads` == 1 spawns no worker threads.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const noexcept { return threads_; }

  /// fn(worker, begin, end): worker in [0, thread_count()) identifies the
  /// execution slot (stable across calls — index per-worker scratch with it),
  /// [begin, end) the chunk of [0, n) it claimed.  Chunks are never empty.
  using RangeFn = std::function<void(unsigned worker, std::size_t begin,
                                     std::size_t end)>;

  /// Work-stealing parallel-for: fn runs once per claimed chunk.  Blocks
  /// until the whole range is covered.  Assignment is nondeterministic, so
  /// callers must write disjoint per-index outputs (the sweep does) for
  /// reproducible results.  A 1-thread pool claims the chunks in index
  /// order — the same traversal as a plain loop, no threads spawned.
  /// for_range_stealing(n, fn, o) == post_range_stealing(n, fn, o) +
  /// finish_range().
  void for_range_stealing(std::size_t n, const RangeFn& fn,
                          RangeOptions options = {});

  /// Asynchronous variant for software pipelining: posts the job and returns
  /// immediately — the workers start claiming right away, while the calling
  /// thread joins the claim loop only inside finish_range().  Between the
  /// two calls the caller may do unrelated work (the batch verifier parses
  /// labeling i+1 there while the workers sweep labeling i).  A 1-thread
  /// pool runs the whole range inside finish_range(), so the sequential path
  /// still spawns nothing.  At most one posted range may be outstanding.
  void post_range_stealing(std::size_t n, RangeFn fn,
                           RangeOptions options = {});

  /// Completes the posted range: claims chunks here until the range is
  /// exhausted, blocks until every worker has finished, and rethrows the
  /// first captured exception (or CancelledError, see RangeOptions::cancel).
  void finish_range();

  /// Stats of the most recent job completed by this pool; valid until the
  /// next job starts.  Calling-thread-only, like the pool's other
  /// bookkeeping between post and finish.
  const RangeStats& last_range_stats() const noexcept { return last_stats_; }

  /// Home slot of chunk `c` when `chunks` chunk indices are contiguously
  /// split over `threads` slots — the baseline a "steal" is counted against.
  static unsigned chunk_home(std::size_t c, std::size_t chunks,
                             unsigned threads) noexcept {
    return static_cast<unsigned>(((c + 1) * threads - 1) / chunks);
  }

  /// std::thread::hardware_concurrency, clamped to >= 1.
  static unsigned hardware_threads() noexcept;

 private:
  /// One range job's shape, fixed when it is posted.
  struct Job {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t chunk_count = 0;
    const CancelToken* cancel = nullptr;
  };

  /// One slot's contribution to a job, accumulated in locals during the
  /// claim loop and committed to worker_stats_ under mu_ at job end.
  struct WorkerTotals {
    std::uint64_t chunks = 0;
    std::uint64_t steals = 0;
    std::uint64_t busy_ns = 0;
  };

  Job make_job(std::size_t n, const RangeOptions& options) const noexcept;
  void worker_loop(unsigned worker);
  /// Resets the claim cursor and, with peers to wake, publishes the job.
  void start_workers(const RangeFn* fn, const Job& job) PLS_EXCLUDES(mu_);
  /// Runs claimant 0 on the calling thread, waits for the workers, fills
  /// last_stats_ and rethrows.  The range was cancelled iff fewer chunks
  /// executed than exist and no chunk threw.
  void join_workers(const RangeFn& fn, const Job& job) PLS_EXCLUDES(mu_);
  /// The claim loop: grabs chunks off steal_next_ until the range is
  /// exhausted, the job's token reads cancelled, or fn throws (the returned
  /// error stops this slot's claiming but not its peers').  Fills `totals`;
  /// never throws itself.
  std::exception_ptr run_stealing(unsigned worker, const RangeFn& fn,
                                  const Job& job,
                                  WorkerTotals& totals) noexcept;

  const unsigned threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar start_cv_;  // signals workers: a new job is posted
  CondVar done_cv_;   // signals caller: all workers finished
  // Handed from the caller to the workers and back under mu_; per-slot
  // totals are committed back under the same lock the job-end remaining_
  // decrement already takes.
  const RangeFn* job_ PLS_GUARDED_BY(mu_) = nullptr;  // valid while job runs
  Job job_shape_ PLS_GUARDED_BY(mu_);
  std::uint64_t generation_ PLS_GUARDED_BY(mu_) = 0;  // bumped per job
  unsigned remaining_ PLS_GUARDED_BY(mu_) = 0;  // workers still claiming
  std::exception_ptr first_error_ PLS_GUARDED_BY(mu_);
  bool stopping_ PLS_GUARDED_BY(mu_) = false;
  std::vector<WorkerTotals> worker_stats_ PLS_GUARDED_BY(mu_);
  // The chunk claim cursor.  Deliberately NOT guarded: fetch_add(relaxed)
  // only has to hand every claimant a unique index — all data the chunks
  // read or write is ordered by the job hand-off mutex (publish at
  // start_workers, collect at the remaining_ == 0 wait), never by this
  // cursor.  Reset (relaxed) before each job's publication; quiesced
  // workers cannot observe the reset early because they re-read the job only
  // after the generation_ bump behind the same mutex.
  std::atomic<std::size_t> steal_next_{0};
  // post_range_stealing bookkeeping: touched only by the calling thread
  // between post and finish_range (the workers read the job through job_),
  // so these are caller-local, not guarded.
  RangeFn posted_fn_;    // owning copy of the posted job's body
  Job posted_job_;
  bool posted_ = false;  // a posted range awaits finish_range
  RangeStats last_stats_;
};

}  // namespace pls::util
