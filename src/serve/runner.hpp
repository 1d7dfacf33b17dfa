// Job execution for the simulation service (DESIGN.md §9).
//
// The runner is the single-threaded heart of a worker: given a validated
// JobSpec and an arena Simulator it owns for the duration of the call, it
// reproduces the corresponding experiment driver exactly — same machine
// construction, same measurement helpers, same arithmetic — and renders the
// observables as canonical JSON. Determinism is the contract: the same spec
// on any worker (or serially on one) produces byte-identical result JSON,
// which is what makes the spec-keyed result cache sound.
//
// One construction per family decides what a job runs: its Machine and
// subsystem (MD app, all-reduce) or, for the Fig. 5 sweep, its probe list.
// The plan a job is verified against is extracted from those very objects,
// so the verified traffic is the simulated traffic.
//
// Cache keying: jobKey() is FNV-1a over the canonical spec JSON. The plan
// is a function of the spec, so two submissions key identically exactly
// when they request the same choreography with the same parameters, and a
// cache hit needs no plan at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "serve/job_spec.hpp"
#include "sim/simulator.hpp"
#include "verify/checks.hpp"

namespace anton::serve {

/// Cooperative cancellation: the runner polls stop() between units of work
/// (an MD step, one ping measurement, one collective) and abandons the job
/// cleanly when it fires. Default-constructed tokens never stop.
struct CancelToken {
  const std::atomic<bool>* cancelled = nullptr;
  bool hasDeadline = false;
  std::chrono::steady_clock::time_point deadline{};

  bool stop() const {
    if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed))
      return true;
    return hasDeadline && std::chrono::steady_clock::now() >= deadline;
  }
};

/// What a completed (or abandoned) run produced.
struct RunOutcome {
  bool cancelled = false;  ///< token fired; metrics/json are empty
  /// Observables, in canonical (sorted-key) order.
  std::map<std::string, double> metrics;
  /// Canonical JSON rendering of the outcome: {"family":...,"metrics":{...},
  /// "digest":"0x..."}. Byte-identical across workers for identical specs.
  std::string resultJson;
  /// FNV-1a over the canonical metrics serialization — the value two
  /// concurrent runs of one spec must agree on bit-for-bit.
  std::uint64_t digest = 0;
};

/// The static communication plan runJob(spec) puts on the wire: the job's
/// own construction, on a private Simulator, with nothing simulated.
verify::CommPlan planForSpec(const JobSpec& spec);

/// The service cache key: FNV-1a over the canonical spec JSON.
std::uint64_t jobKey(const JobSpec& spec);

/// Execute `spec` on `arena`. The runner resets the arena before each
/// internal measurement unit, so results are identical to running on a
/// fresh Simulator; it leaves the arena drained (a subsequent reset()
/// reports 0 discarded — the cross-job leak audit the server performs).
/// With `verified`, the plan of the objects built is verified into it
/// between construction and simulation, and a plan with violations returns
/// an empty, uncancelled outcome without simulating; without, nothing is
/// extracted or verified.
RunOutcome runJob(const JobSpec& spec, sim::Simulator& arena,
                  const CancelToken& cancel = {},
                  verify::VerifyResult* verified = nullptr);

}  // namespace anton::serve
