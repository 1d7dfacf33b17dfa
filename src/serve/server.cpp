#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace anton::serve {
namespace {

namespace json = util::json;

double msBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of a sorted sample (p in [0, 1]).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(p * double(sorted.size()));
  std::size_t idx = std::size_t(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

const char* stateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "?";
}

bool isTerminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

JobServer::JobServer(ServerConfig cfg)
    : cfg_(cfg), startedAt_(std::chrono::steady_clock::now()) {
  if (cfg_.workers < 1)
    throw std::invalid_argument("JobServer: need at least one worker");
  if (cfg_.queueCapacity < 1)
    throw std::invalid_argument("JobServer: need queue capacity >= 1");
  workerStats_.resize(std::size_t(cfg_.workers));
  workers_.reserve(std::size_t(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w)
    workers_.emplace_back([this, w] { workerLoop(w); });
}

JobServer::~JobServer() { shutdown(); }

SubmitOutcome JobServer::submit(const JobSpec& spec,
                                const SubmitOptions& opts) {
  std::vector<std::string> errs = validateSpec(spec);
  util::MutexLock lk(mu_);
  if (!errs.empty()) {
    ++rejected_;
    std::string reason = "invalid spec: " + errs.front();
    for (std::size_t i = 1; i < errs.size(); ++i) reason += "; " + errs[i];
    return {false, 0, reason};
  }
  if (stop_) {
    ++rejected_;
    return {false, 0, "server is shutting down"};
  }
  if (queue_.size() >= cfg_.queueCapacity) {
    // Backpressure, not blocking: the accept path reports and returns so
    // the submitting client decides (resubmit, shed, or wait) — a stalled
    // daemon accept loop would be worse than a rejected job.
    ++rejected_;
    return {false, 0,
            "queue full (capacity " + std::to_string(cfg_.queueCapacity) +
                "): resubmit after a job drains"};
  }
  std::uint64_t id = nextId_++;
  Job& job = jobs_[id];
  job.rec.id = id;
  job.rec.spec = spec;
  job.rec.state = JobState::kQueued;
  job.opts = opts;
  job.cancelFlag = std::make_shared<std::atomic<bool>>(false);
  job.submittedAt = std::chrono::steady_clock::now();
  if (opts.deadlineMs > 0) {
    job.hasDeadline = true;
    job.deadline = job.submittedAt +
                   std::chrono::microseconds(std::int64_t(opts.deadlineMs * 1000));
  }
  queue_.push_back(id);
  workCv_.notify_one();
  return {true, id, ""};
}

JobRecord JobServer::wait(std::uint64_t id) {
  util::MutexLock lk(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("unknown job id " + std::to_string(id));
  // Explicit loop rather than a predicate lambda: the guarded read stays in
  // this annotated scope, where the analysis can see mu_ is held.
  while (!isTerminal(it->second.rec.state)) doneCv_.wait(lk);
  return it->second.rec;
}

std::optional<JobRecord> JobServer::poll(std::uint64_t id) const {
  util::MutexLock lk(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.rec;
}

bool JobServer::cancel(std::uint64_t id) {
  util::MutexLock lk(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || isTerminal(it->second.rec.state)) return false;
  it->second.cancelFlag->store(true);
  if (it->second.rec.state == JobState::kQueued) {
    // A queued job never runs: drop it from the queue and settle it now
    // (even while paused), so cancel is immediate rather than best-effort.
    std::erase(queue_, id);
    finishLocked(it->second, JobState::kCancelled);
  }
  return true;
}

void JobServer::pause() {
  util::MutexLock lk(mu_);
  paused_ = true;
}

void JobServer::resume() {
  util::MutexLock lk(mu_);
  paused_ = false;
  workCv_.notify_all();
}

void JobServer::shutdown() {
  {
    util::MutexLock lk(mu_);
    stop_ = true;  // a second call finds the queue empty and just joins
    for (std::uint64_t id : queue_) {
      Job& job = jobs_.at(id);
      job.rec.error = "server shut down before the job ran";
      finishLocked(job, JobState::kFailed);
    }
    queue_.clear();
    workCv_.notify_all();
  }
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

void JobServer::finishLocked(Job& job, JobState state) {
  job.rec.state = state;
  job.rec.turnaroundMs =
      msBetween(job.submittedAt, std::chrono::steady_clock::now());
  if (state == JobState::kDone)
    familyTurnaroundMs_[familyName(job.rec.spec.family)].push_back(
        job.rec.turnaroundMs);
  doneCv_.notify_all();
}

void JobServer::workerLoop(int index) {
  // The worker's arena: one isolated Simulator reused across every job this
  // worker runs. reset() before each run is the cross-job leak audit — a
  // nonzero discard count means a previous job left events or frames behind.
  sim::Simulator arena;
  for (;;) {
    util::MutexLock lk(mu_);
    while (!(stop_ || (!paused_ && !queue_.empty()))) workCv_.wait(lk);
    if (stop_) return;
    std::uint64_t id = queue_.front();
    queue_.pop_front();
    Job& job = jobs_.at(id);
    auto now = std::chrono::steady_clock::now();
    if (job.cancelFlag->load()) {
      finishLocked(job, JobState::kCancelled);
      continue;
    }
    if (job.hasDeadline && now >= job.deadline) {
      finishLocked(job, JobState::kExpired);
      continue;
    }
    job.rec.state = JobState::kRunning;
    job.rec.worker = index;
    workerStats_[std::size_t(index)].busy = true;
    JobSpec spec = job.rec.spec;
    SubmitOptions opts = job.opts;
    std::shared_ptr<std::atomic<bool>> cancelFlag = job.cancelFlag;
    CancelToken token{cancelFlag.get(), job.hasDeadline, job.deadline};
    lk.unlock();

    auto t0 = std::chrono::steady_clock::now();
    JobState final = JobState::kDone;
    std::string error, resultJson;
    std::uint64_t digest = 0;
    const std::uint64_t key = jobKey(spec);
    int violations = 0, lints = 0;
    bool cacheHit = false, stored = false;
    std::size_t dirty = 0;
    try {
      {
        util::MutexLock lk2(mu_);
        auto it = cache_.find(key);
        if (opts.useCache && it != cache_.end()) {
          cacheHit = true;
          resultJson = it->second.resultJson;
          digest = it->second.digest;
          lints = it->second.lints;
        }
      }
      if (!cacheHit) {
        dirty = arena.reset();
        verify::VerifyResult vr;
        RunOutcome out = runJob(spec, arena, token, &vr);
        violations = int(vr.violations.size());
        lints = int(vr.lints.size());
        if (!vr.ok()) {
          final = JobState::kFailed;
          error = "plan verification failed: " +
                  vr.violations.front().check + " at " +
                  vr.violations.front().site + ": " +
                  vr.violations.front().detail;
          if (violations > 1)
            error += " (+" + std::to_string(violations - 1) + " more)";
        } else if (out.cancelled) {
          final = cancelFlag->load() ? JobState::kCancelled
                                     : JobState::kExpired;
        } else {
          resultJson = out.resultJson;
          digest = out.digest;
          stored = true;
        }
      }
    } catch (const std::exception& e) {
      final = JobState::kFailed;
      error = e.what();
    }
    auto t1 = std::chrono::steady_clock::now();

    lk.lock();
    if (stored)
      cache_[key] = CacheEntry{resultJson, digest, lints};
    Job& done = jobs_.at(id);
    done.rec.cacheHit = cacheHit;
    done.rec.cacheKeyHex = util::hex64(key);
    done.rec.resultJson = resultJson;
    done.rec.digest = digest;
    done.rec.error = error;
    done.rec.violations = violations;
    done.rec.lints = lints;
    if (cacheHit) ++cacheHits_;
    if (dirty != 0) ++arenaDirtyResets_;
    WorkerStats& ws = workerStats_[std::size_t(index)];
    ws.busy = false;
    ++ws.jobsRun;
    ws.busyMs += msBetween(t0, t1);
    finishLocked(done, final);
  }
}

std::string JobServer::statusz() const {
  util::MutexLock lk(mu_);
  std::map<std::string, int> byState;
  for (const char* s : {"queued", "running", "done", "failed", "cancelled",
                        "expired"})
    byState[s] = 0;
  for (const auto& [id, job] : jobs_) ++byState[stateName(job.rec.state)];
  double wallMs =
      msBetween(startedAt_, std::chrono::steady_clock::now());

  std::ostringstream os;
  os << "{\"jobs\":{";
  bool first = true;
  for (const auto& [state, count] : byState) {
    if (!first) os << ",";
    first = false;
    os << json::quoted(state) << ":" << count;
  }
  os << "},\"queueDepth\":" << queue_.size()
     << ",\"queueCapacity\":" << cfg_.queueCapacity
     << ",\"rejected\":" << rejected_ << ",\"cacheHits\":" << cacheHits_
     << ",\"cacheEntries\":" << cache_.size()
     << ",\"arenaDirtyResets\":" << arenaDirtyResets_ << ",\"workers\":[";
  for (std::size_t w = 0; w < workerStats_.size(); ++w) {
    const WorkerStats& ws = workerStats_[w];
    if (w != 0) os << ",";
    double util = wallMs > 0 ? std::min(1.0, ws.busyMs / wallMs) : 0.0;
    os << "{\"id\":" << w << ",\"jobsRun\":" << ws.jobsRun
       << ",\"busy\":" << (ws.busy ? "true" : "false")
       << ",\"utilization\":" << json::number(util) << "}";
  }
  os << "],\"families\":{";
  first = true;
  for (const auto& [family, samples] : familyTurnaroundMs_) {
    if (!first) os << ",";
    first = false;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    os << json::quoted(family) << ":{\"count\":" << sorted.size()
       << ",\"p50Ms\":" << json::number(percentile(sorted, 0.50))
       << ",\"p90Ms\":" << json::number(percentile(sorted, 0.90))
       << ",\"p99Ms\":" << json::number(percentile(sorted, 0.99)) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace anton::serve
