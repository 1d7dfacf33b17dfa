// Declarative job specifications for the simulation service (DESIGN.md §9).
//
// A JobSpec names everything a job run depends on — family, torus shape,
// fault plan, recovery and collective configuration, seed — and nothing it
// doesn't (submission options like deadlines and cache policy live
// elsewhere: they change *when* a result arrives, never what it is). Specs
// serialize to canonical strict JSON with a fixed key order, so the same
// choreography always produces the same bytes; their hash is the server's
// cache key (runner.hpp).
//
// The family factories below are THE construction path for the shipped
// configurations: the quickstart example, the Fig. 5 and Table 2 bench
// drivers and the serve job families all build their specs here, so a
// config change lands in every consumer at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/torus_coord.hpp"

namespace anton::serve {

/// The job families the service executes (the shipped experiment drivers).
enum class JobFamily {
  kQuickstartMd,     ///< quickstart MD steps (golden "quickstart-md" plan)
  kFig5Ping,         ///< Fig. 5 latency-vs-hops ping set
  kTable2AllReduce,  ///< Table 2 dimension-ordered all-reduce
  kFaultSweep,       ///< armed all-reduce on a lossy fabric (erasure recovery)
};

const char* familyName(JobFamily f);
/// Throws std::invalid_argument for unknown names.
JobFamily parseFamily(const std::string& name);

struct JobSpec {
  JobFamily family = JobFamily::kQuickstartMd;
  util::TorusShape shape{4, 4, 4};
  std::uint64_t seed = 2010;

  // quickstart-md
  int steps = 2;
  int atoms = 1536;

  // fig5-ping (hops 0..maxHops, payloads {0, payloadBytes})
  int maxHops = 4;
  int payloadBytes = 256;

  // table2-allreduce and fault-sweep operand length (doubles; 0 = barrier)
  int words = 4;

  // Fault plan (fault-sweep; degradedMode also reroutes fig5-ping around a
  // scheduled X+ outage at node 0).
  double bitErrorRate = 0.0;
  int maxRetransmits = 16;
  bool degradedMode = false;

  // Erasure recovery for armed waits (core/recovery.hpp). Defaults match
  // the shipped quickstart-md arming; faultSweepSpec tightens them.
  double recoveryTimeoutUs = 5000.0;
  int recoveryMaxResends = 6;
  double recoveryBackoffUs = 0.5;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Parse an "AxBxC" torus shape (e.g. "8x8x8"). Throws std::runtime_error
/// on malformed input.
util::TorusShape parseShape(const std::string& s);

/// Canonical one-line JSON: fixed key order, classic-locale numbers.
/// Identical specs always serialize to identical bytes (the cache-key and
/// wire representation).
std::string specToJson(const JobSpec& spec);

/// Strict parse: unknown keys, wrong types and unknown families throw
/// std::runtime_error. Missing optional keys take the JobSpec defaults.
JobSpec specFromJson(const std::string& json);
JobSpec specFromValue(const util::json::Value& v);

/// Structural validation (ranges, family/shape compatibility). Returns every
/// problem found; an empty vector means the spec is runnable.
std::vector<std::string> validateSpec(const JobSpec& spec);

// --- family factories (the shared construction path) -----------------------

/// The quickstart MD job: 4x4x4 torus, 1536 atoms, the registry's
/// quickstartMdConfig physics, `steps` MD steps.
JobSpec quickstartMdSpec(int steps = 2);

/// The Fig. 5 ping set on the paper's 512-node 8x8x8 torus: uni- and
/// bidirectional latency at hops 0..maxHops for 0 B and `payloadBytes`.
JobSpec fig5PingSpec(int maxHops = 12, int payloadBytes = 256);

/// One Table 2 all-reduce: `words` doubles (0 = pure barrier) over every
/// node of `shape`.
JobSpec table2AllReduceSpec(util::TorusShape shape, int words = 4);

/// Armed all-reduce on a lossy fabric: BER + a retransmit cap tight enough
/// to drop packets, recovery tuned like the fault sweep's armed hooks.
JobSpec faultSweepSpec(util::TorusShape shape, double bitErrorRate,
                       int maxRetransmits = 1);

}  // namespace anton::serve
