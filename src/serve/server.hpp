// The concurrent job server (DESIGN.md §9): simulation as a service.
//
// A JobServer owns a fixed pool of worker threads; each worker owns one
// isolated Simulator arena for its whole lifetime and runs jobs on it
// sequentially (the kernel itself stays single-threaded — concurrency lives
// strictly between jobs, never inside one). Submissions are validated
// structurally, queued into a bounded queue (a full queue rejects with a
// reason — the accept path never blocks), and executed as:
//
//   key      = jobKey(spec)               FNV over the canonical spec bytes
//   cache?   -> done, cacheHit = true     no plan work on a hit
//   reset()  audit                        arena must come back clean (0)
//   runJob(spec, arena, token, &verdict)  builds the job's objects once,
//                                         verifies their plan (violations
//                                         fail the job before it
//                                         simulates), then simulates them
//                                         with cooperative cancel + deadline
//   cache[key] = result                   stored even for useCache=false
//
// Results are canonical JSON (runner.hpp): bit-identical across workers for
// identical specs, which the determinism test and the serve bench assert.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_spec.hpp"
#include "serve/runner.hpp"
#include "util/thread_safety.hpp"

namespace anton::serve {

struct ServerConfig {
  int workers = 4;
  std::size_t queueCapacity = 16;  ///< queued (not yet running) jobs
};

/// Per-submission options: change when/whether a result arrives, never what
/// it is — deliberately NOT part of the spec or the cache key.
struct SubmitOptions {
  bool useCache = true;   ///< false forces execution; the result is still
                          ///< stored, so a later submit can hit
  double deadlineMs = 0;  ///< wall-clock budget from submission; 0 = none
};

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t id = 0;
  std::string reason;  ///< rejection reason when !accepted
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< validation passed but verify/run failed; see error
  kCancelled,  ///< cancel() won before completion
  kExpired,    ///< deadline passed before completion
};

const char* stateName(JobState s);
bool isTerminal(JobState s);

struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  bool cacheHit = false;
  std::string cacheKeyHex;  ///< "0x..." jobKey(spec), once a worker took it
  std::string resultJson;   ///< canonical outcome (kDone only)
  std::uint64_t digest = 0;
  std::string error;        ///< kFailed diagnostic
  int violations = 0;       ///< static-verifier findings (kFailed on > 0)
  int lints = 0;
  int worker = -1;
  double turnaroundMs = 0;  ///< submission -> terminal state
};

class JobServer {
 public:
  explicit JobServer(ServerConfig cfg = {});
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Validate and enqueue. Never blocks: a structurally invalid spec or a
  /// full queue rejects immediately with a reason.
  SubmitOutcome submit(const JobSpec& spec, const SubmitOptions& opts = {});

  /// Block until the job reaches a terminal state; returns its record.
  /// Throws std::invalid_argument for unknown ids.
  JobRecord wait(std::uint64_t id);

  /// Snapshot of the record, or nullopt for unknown ids.
  std::optional<JobRecord> poll(std::uint64_t id) const;

  /// Request cancellation. Queued jobs never run; running jobs stop at the
  /// next cooperative check. Returns false when the job is unknown or
  /// already terminal.
  bool cancel(std::uint64_t id);

  /// Hold/release the workers' dequeue (admin + deterministic tests: fill
  /// the queue, cancel queued jobs, expire deadlines — then release).
  void pause();
  void resume();

  /// /statusz-style report as canonical JSON: queue depth, per-state job
  /// counts, cache hits/entries, the arena-reset leak audit, per-worker
  /// utilization and per-family turnaround percentiles.
  std::string statusz() const;

  /// Stop accepting, let running jobs finish, fail queued jobs, join.
  void shutdown();

 private:
  struct Job {
    JobRecord rec;
    SubmitOptions opts;
    std::shared_ptr<std::atomic<bool>> cancelFlag;
    std::chrono::steady_clock::time_point submittedAt;
    std::chrono::steady_clock::time_point deadline;
    bool hasDeadline = false;
  };
  struct WorkerStats {
    std::uint64_t jobsRun = 0;
    double busyMs = 0;
    bool busy = false;
  };
  struct CacheEntry {
    std::string resultJson;
    std::uint64_t digest = 0;
    int lints = 0;
  };

  void workerLoop(int index);
  /// Stamp the terminal state + notify waiters. The REQUIRES contract is
  /// the "Locked" suffix made machine-checked: calling this without mu_
  /// held is a clang -Wthread-safety build break.
  void finishLocked(Job& job, JobState state) ANTON_REQUIRES(mu_);

  ServerConfig cfg_;
  mutable util::Mutex mu_;
  /// condition_variable_any: waits directly on util::MutexLock (the
  /// annotated scoped lock is BasicLockable).
  std::condition_variable_any workCv_;          ///< workers: queue/stop/pause
  mutable std::condition_variable_any doneCv_;  ///< waiters: terminal states
  bool stop_ ANTON_GUARDED_BY(mu_) = false;
  bool paused_ ANTON_GUARDED_BY(mu_) = false;
  std::uint64_t nextId_ ANTON_GUARDED_BY(mu_) = 1;
  std::deque<std::uint64_t> queue_ ANTON_GUARDED_BY(mu_);
  std::map<std::uint64_t, Job> jobs_ ANTON_GUARDED_BY(mu_);
  std::map<std::uint64_t, CacheEntry> cache_ ANTON_GUARDED_BY(mu_);
  std::vector<WorkerStats> workerStats_ ANTON_GUARDED_BY(mu_);
  std::map<std::string, std::vector<double>> familyTurnaroundMs_
      ANTON_GUARDED_BY(mu_);
  std::uint64_t cacheHits_ ANTON_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ ANTON_GUARDED_BY(mu_) = 0;
  /// Cross-job leak audit: stays 0.
  std::uint64_t arenaDirtyResets_ ANTON_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point startedAt_;  // set once in the ctor
  std::vector<std::thread> workers_;  // last: joined before members die
};

}  // namespace anton::serve
