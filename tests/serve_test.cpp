// The simulation service (src/serve): spec round-trips and validation, the
// deterministic runner, the concurrent job server with its spec-keyed
// cache, and the line-delimited protocol.
//
// The determinism contract under test: a job's result is a pure function of
// its spec — identical specs produce bit-identical canonical JSON whether
// they run serially on one arena, concurrently on a 4-worker pool, or out
// of the cache. CI also runs this binary under TSan; the server must be
// race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "plan_registry.hpp"
#include "serve/job_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "verify/checks.hpp"
#include "verify/snapshot.hpp"

namespace anton::serve {
namespace {

namespace json = util::json;

/// The mixed-family workload the acceptance criteria name: 11 distinct jobs
/// covering every family, small enough to run in test time.
std::vector<JobSpec> mixedWorkload() {
  std::vector<JobSpec> specs;
  specs.push_back(quickstartMdSpec(/*steps=*/1));
  specs.push_back(quickstartMdSpec(/*steps=*/2));
  specs.push_back(fig5PingSpec(/*maxHops=*/4, /*payloadBytes=*/256));
  specs.push_back(fig5PingSpec(/*maxHops=*/2, /*payloadBytes=*/64));
  specs.push_back(fig5PingSpec(/*maxHops=*/1, /*payloadBytes=*/0));
  specs.push_back(table2AllReduceSpec({4, 4, 4}, /*words=*/4));
  specs.push_back(table2AllReduceSpec({2, 2, 2}, /*words=*/4));
  specs.push_back(table2AllReduceSpec({4, 4, 1}, /*words=*/0));
  specs.push_back(faultSweepSpec({2, 2, 2}, /*bitErrorRate=*/1e-5));
  specs.push_back(faultSweepSpec({2, 2, 2}, /*bitErrorRate=*/0.0,
                                 /*maxRetransmits=*/4));
  specs.push_back(faultSweepSpec({4, 4, 1}, /*bitErrorRate=*/0.0,
                                 /*maxRetransmits=*/4));
  return specs;
}

TEST(JobSpec, RoundTripsThroughCanonicalJson) {
  for (const JobSpec& spec : mixedWorkload()) {
    SCOPED_TRACE(specToJson(spec));
    JobSpec back = specFromJson(specToJson(spec));
    EXPECT_EQ(back, spec);
    // Canonical bytes: serialize(parse(serialize(x))) == serialize(x).
    EXPECT_EQ(specToJson(back), specToJson(spec));
  }
}

TEST(JobSpec, RejectsUnknownKeysAndWrongTypes) {
  EXPECT_THROW(specFromJson("{\"family\":\"quickstart-md\",\"bogus\":1}"),
               std::runtime_error);
  EXPECT_THROW(specFromJson("{\"family\":\"no-such-family\"}"),
               std::invalid_argument);
  EXPECT_THROW(specFromJson("{\"family\":\"quickstart-md\",\"steps\":\"2\"}"),
               std::runtime_error);
  EXPECT_THROW(specFromJson("{\"family\":\"quickstart-md\",\"shape\":\"4x4\"}"),
               std::runtime_error);
}

TEST(JobSpec, IntegerFieldsRoundTripExactlyOrAreRejected) {
  // Seeds above 2^53 survive the round trip bit for bit.
  for (std::uint64_t seed : {(1ull << 53) + 1, ~0ull}) {
    JobSpec spec = quickstartMdSpec();
    spec.seed = seed;
    EXPECT_EQ(specFromJson(specToJson(spec)).seed, seed);
  }
  // A fraction, an exponent or a negative seed is an error naming the field.
  for (const char* field : {"\"steps\":2.5", "\"steps\":1e30", "\"seed\":-1",
                            "\"seed\":2.5", "\"seed\":1e30"}) {
    const std::string text =
        std::string("{\"family\":\"quickstart-md\",") + field + "}";
    try {
      specFromJson(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::runtime_error& e) {
      const std::string name = std::string(field).substr(1, 4);
      EXPECT_NE(std::string(e.what()).find("spec." + name), std::string::npos)
          << e.what();
    }
  }
}

TEST(JobSpec, ValidationCatchesOutOfRangeFields) {
  EXPECT_TRUE(validateSpec(quickstartMdSpec()).empty());

  JobSpec bad = quickstartMdSpec();
  bad.steps = 0;
  EXPECT_FALSE(validateSpec(bad).empty());

  bad = quickstartMdSpec();
  bad.atoms = 1;
  EXPECT_FALSE(validateSpec(bad).empty());

  bad = fig5PingSpec();
  bad.shape = {4, 4, 4};  // Fig. 5 is pinned to the paper's 8x8x8 machine
  EXPECT_FALSE(validateSpec(bad).empty());

  bad = faultSweepSpec({2, 2, 2}, 0.5);  // BER over the model's ceiling
  EXPECT_FALSE(validateSpec(bad).empty());

  bad = table2AllReduceSpec({0, 4, 4});
  EXPECT_FALSE(validateSpec(bad).empty());
}

TEST(JobSpec, ParseShapeAcceptsAxBxCOnly) {
  EXPECT_EQ(parseShape("8x8x8"), (util::TorusShape{8, 8, 8}));
  EXPECT_THROW(parseShape("8x8"), std::runtime_error);
  EXPECT_THROW(parseShape("axbxc"), std::runtime_error);
  EXPECT_THROW(parseShape(""), std::runtime_error);
}

TEST(Runner, JobKeyIsTheSpec) {
  const JobSpec base = quickstartMdSpec();
  EXPECT_EQ(jobKey(base), jobKey(quickstartMdSpec()));
  // Changing any one field changes the key.
  const std::vector<std::function<void(JobSpec&)>> edits = {
      [](JobSpec& s) { s.family = JobFamily::kTable2AllReduce; },
      [](JobSpec& s) { s.shape = {4, 4, 2}; },
      [](JobSpec& s) { s.seed = 7; },
      [](JobSpec& s) { s.steps = 3; },
      [](JobSpec& s) { s.atoms = 1024; },
      [](JobSpec& s) { s.maxHops = 5; },
      [](JobSpec& s) { s.payloadBytes = 64; },
      [](JobSpec& s) { s.words = 8; },
      [](JobSpec& s) { s.bitErrorRate = 1e-6; },
      [](JobSpec& s) { s.maxRetransmits = 4; },
      [](JobSpec& s) { s.degradedMode = true; },
      [](JobSpec& s) { s.recoveryTimeoutUs = 100.0; },
      [](JobSpec& s) { s.recoveryMaxResends = 2; },
      [](JobSpec& s) { s.recoveryBackoffUs = 1.5; },
  };
  for (const auto& edit : edits) {
    JobSpec changed = base;
    edit(changed);
    SCOPED_TRACE(specToJson(changed));
    EXPECT_NE(jobKey(changed), jobKey(base));
  }
}

// The plan serve verifies is the traffic the job simulates: it comes from
// the job's own construction, seed included, and the Fig. 5 plan names
// every destination the sweep probes.
TEST(Runner, PlanIsTheTrafficTheJobRuns) {
  std::string plans[2];
  int k = 0;
  for (std::uint64_t seed : {2010ull, 7ull}) {
    JobSpec spec = quickstartMdSpec();
    spec.seed = seed;
    SCOPED_TRACE(specToJson(spec));
    sim::Simulator sim;
    net::Machine machine(sim, spec.shape);
    md::SyntheticSystemParams sp;
    sp.targetAtoms = spec.atoms;
    sp.seed = seed;
    md::AntonMdApp app(machine, md::buildSyntheticSystem(sp),
                       tools::quickstartMdConfig());
    plans[k] = verify::planKeyHex(planForSpec(spec));
    EXPECT_EQ(plans[k++], verify::planKeyHex(app.extractCommPlan()));
  }
  EXPECT_NE(plans[0], plans[1]);

  const JobSpec ping = fig5PingSpec(/*maxHops=*/2, /*payloadBytes=*/0);
  const verify::CommPlan plan = planForSpec(ping);
  std::vector<net::ClientAddr> sent;
  for (const verify::PlannedWrite& w : plan.writes)
    if (plan.phaseName(w.phase) == "ping.send") sent.push_back(w.dst);
  const std::vector<net::ClientAddr> probed = {
      {0, net::kSlice1},  // hop 0: node 0's other slice
      {util::torusIndex({1, 0, 0}, ping.shape), net::kSlice0},
      {util::torusIndex({2, 0, 0}, ping.shape), net::kSlice0}};
  EXPECT_EQ(sent, probed);
}

TEST(Runner, EveryFamilyPlanPassesTheStaticVerifier) {
  for (const JobSpec& spec : mixedWorkload()) {
    SCOPED_TRACE(specToJson(spec));
    EXPECT_TRUE(verify::verifyPlan(planForSpec(spec)).ok());
  }
}

TEST(Runner, CancelTokenStopsBetweenUnitsOfWork) {
  std::atomic<bool> cancelled{true};
  CancelToken token;
  token.cancelled = &cancelled;
  sim::Simulator arena;
  RunOutcome out = runJob(quickstartMdSpec(/*steps=*/5), arena, token);
  EXPECT_TRUE(out.cancelled);
  EXPECT_TRUE(out.resultJson.empty());
}

TEST(JobSpec, ShardingIsAnUnknownKeyInSpecsAndOverTheProtocol) {
  // The event kernel is serial only; a spec still carrying the retired
  // "sharding" field is refused like any other unknown key, both by the
  // strict parser and over the line protocol, and the server stays healthy.
  const std::string serial = specToJson(table2AllReduceSpec({2, 2, 2}));
  EXPECT_EQ(serial.find("sharding"), std::string::npos);
  const std::string withSharding =
      serial.substr(0, serial.size() - 1) + ",\"sharding\":\"per-node\"}";
  try {
    specFromJson(withSharding);
    FAIL() << "a spec with \"sharding\" must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown field \"sharding\""),
              std::string::npos)
        << e.what();
  }

  JobServer server({.workers = 1, .queueCapacity = 4});
  ProtocolResult r = handleLine(
      server, "{\"op\":\"submit\",\"spec\":" + withSharding + "}");
  EXPECT_FALSE(r.shutdown);
  json::Value resp = json::parse(r.response, "resp");
  EXPECT_FALSE(json::asBool(json::field(resp, "ok", "r"), "ok"));
  SubmitOutcome out = server.submit(specFromJson(serial));
  ASSERT_TRUE(out.accepted) << out.reason;
  EXPECT_EQ(server.wait(out.id).state, JobState::kDone);
  server.shutdown();
}

// The acceptance-criteria core: the mixed-family jobs on a 4-worker server
// complete bit-identical to serial execution on a single arena, every plan
// verifies clean, and resubmitting the whole workload is served entirely
// from the spec-keyed cache with the same results.
TEST(JobServer, ParallelResultsMatchSerialExecutionBitForBit) {
  std::vector<JobSpec> specs = mixedWorkload();

  std::vector<RunOutcome> serial;
  sim::Simulator arena;
  for (const JobSpec& spec : specs) {
    arena.reset();
    serial.push_back(runJob(spec, arena));
  }

  JobServer server({.workers = 4, .queueCapacity = 16});
  std::vector<std::uint64_t> ids;
  for (const JobSpec& spec : specs) {
    SubmitOutcome out = server.submit(spec);
    ASSERT_TRUE(out.accepted) << out.reason;
    ids.push_back(out.id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(specToJson(specs[i]));
    JobRecord rec = server.wait(ids[i]);
    EXPECT_EQ(rec.state, JobState::kDone) << rec.error;
    EXPECT_EQ(rec.violations, 0);
    EXPECT_FALSE(rec.cacheHit);
    EXPECT_EQ(rec.resultJson, serial[i].resultJson);
    EXPECT_EQ(rec.digest, serial[i].digest);
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specToJson(specs[i]));
    SubmitOutcome out = server.submit(specs[i]);
    ASSERT_TRUE(out.accepted) << out.reason;
    JobRecord rec = server.wait(out.id);
    EXPECT_EQ(rec.state, JobState::kDone) << rec.error;
    EXPECT_TRUE(rec.cacheHit);
    EXPECT_EQ(rec.resultJson, serial[i].resultJson);
  }

  // The arena-reuse audit: no worker ever found leftover events.
  json::Value status = json::parse(server.statusz(), "statusz");
  EXPECT_EQ(json::asU64(json::field(status, "arenaDirtyResets", "statusz"),
                        "statusz.arenaDirtyResets"),
            0u);
  server.shutdown();
}

// Concurrency determinism + the cache: the same spec submitted twice
// concurrently (cache off, so both actually run) produces bit-identical
// results; a third submission with the cache on is served without running.
TEST(JobServer, ConcurrentDuplicatesAreBitIdenticalAndThenCached) {
  JobServer server({.workers = 2, .queueCapacity = 8});
  JobSpec spec = quickstartMdSpec(/*steps=*/2);

  SubmitOptions noCache;
  noCache.useCache = false;
  SubmitOutcome a = server.submit(spec, noCache);
  SubmitOutcome b = server.submit(spec, noCache);
  ASSERT_TRUE(a.accepted && b.accepted);
  JobRecord ra = server.wait(a.id);
  JobRecord rb = server.wait(b.id);
  ASSERT_EQ(ra.state, JobState::kDone) << ra.error;
  ASSERT_EQ(rb.state, JobState::kDone) << rb.error;
  EXPECT_FALSE(ra.cacheHit);
  EXPECT_FALSE(rb.cacheHit);
  EXPECT_EQ(ra.resultJson, rb.resultJson);
  EXPECT_EQ(ra.digest, rb.digest);
  EXPECT_EQ(ra.cacheKeyHex, rb.cacheKeyHex);

  SubmitOutcome c = server.submit(spec);
  ASSERT_TRUE(c.accepted);
  JobRecord rc = server.wait(c.id);
  EXPECT_EQ(rc.state, JobState::kDone) << rc.error;
  EXPECT_TRUE(rc.cacheHit);
  EXPECT_EQ(rc.resultJson, ra.resultJson);
  EXPECT_EQ(rc.digest, ra.digest);
  server.shutdown();
}

TEST(JobServer, InvalidSpecsAreRejectedAtSubmit) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  JobSpec bad = quickstartMdSpec();
  bad.steps = -3;
  SubmitOutcome out = server.submit(bad);
  EXPECT_FALSE(out.accepted);
  EXPECT_NE(out.reason.find("steps"), std::string::npos) << out.reason;
  server.shutdown();
}

TEST(JobServer, FullQueueRejectsWithoutBlocking) {
  JobServer server({.workers = 1, .queueCapacity = 2});
  server.pause();  // hold the worker so submissions stay queued
  JobSpec spec = table2AllReduceSpec({2, 2, 2});
  SubmitOutcome a = server.submit(spec);
  JobSpec other = spec;
  other.words = 8;
  SubmitOutcome b = server.submit(other);
  ASSERT_TRUE(a.accepted && b.accepted);

  JobSpec third = spec;
  third.words = 16;
  SubmitOutcome c = server.submit(third);
  EXPECT_FALSE(c.accepted);
  EXPECT_NE(c.reason.find("queue full"), std::string::npos) << c.reason;

  server.resume();
  EXPECT_EQ(server.wait(a.id).state, JobState::kDone);
  EXPECT_EQ(server.wait(b.id).state, JobState::kDone);
  server.shutdown();
}

TEST(JobServer, QueuedJobsCancelImmediately) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  server.pause();
  SubmitOutcome out = server.submit(table2AllReduceSpec({2, 2, 2}));
  ASSERT_TRUE(out.accepted);
  EXPECT_TRUE(server.cancel(out.id));
  JobRecord rec = server.wait(out.id);  // settles while still paused
  EXPECT_EQ(rec.state, JobState::kCancelled);
  EXPECT_FALSE(server.cancel(out.id));  // already terminal
  server.resume();
  server.shutdown();
}

TEST(JobServer, ExpiredDeadlinesNeverRun) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  server.pause();
  SubmitOptions opts;
  opts.deadlineMs = 1;
  SubmitOutcome out = server.submit(table2AllReduceSpec({2, 2, 2}), opts);
  ASSERT_TRUE(out.accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  JobRecord rec = server.wait(out.id);
  EXPECT_EQ(rec.state, JobState::kExpired);
  EXPECT_TRUE(rec.resultJson.empty());
  server.shutdown();
}

TEST(JobServer, RunningJobsCancelCooperatively) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  // Long enough that cancellation lands mid-run: the runner checks the
  // token between MD steps.
  SubmitOutcome out = server.submit(quickstartMdSpec(/*steps=*/500));
  ASSERT_TRUE(out.accepted);
  for (int i = 0; i < 10000; ++i) {
    auto rec = server.poll(out.id);
    ASSERT_TRUE(rec.has_value());
    if (rec->state != JobState::kQueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.cancel(out.id);
  JobRecord rec = server.wait(out.id);
  EXPECT_EQ(rec.state, JobState::kCancelled);
  server.shutdown();
}

TEST(JobServer, ShutdownFailsQueuedJobsAndJoins) {
  JobServer server({.workers = 1, .queueCapacity = 8});
  server.pause();
  SubmitOutcome out = server.submit(table2AllReduceSpec({2, 2, 2}));
  ASSERT_TRUE(out.accepted);
  server.shutdown();
  JobRecord rec = server.wait(out.id);
  EXPECT_EQ(rec.state, JobState::kFailed);
  EXPECT_FALSE(server.submit(table2AllReduceSpec({2, 2, 2})).accepted);
  server.shutdown();  // idempotent
}

TEST(JobServer, StatuszReportsWorkersFamiliesAndCache) {
  JobServer server({.workers = 2, .queueCapacity = 8});
  JobSpec spec = table2AllReduceSpec({2, 2, 2});
  server.wait(server.submit(spec).id);
  server.wait(server.submit(spec).id);  // cache hit

  json::Value status = json::parse(server.statusz(), "statusz");
  const json::Value& jobs = json::field(status, "jobs", "statusz");
  EXPECT_EQ(json::asU64(json::field(jobs, "done", "statusz"), "done"), 2u);
  EXPECT_EQ(json::asU64(json::field(status, "cacheHits", "s"), "hits"), 1u);
  EXPECT_EQ(json::asU64(json::field(status, "cacheEntries", "s"), "n"), 1u);
  EXPECT_EQ(json::field(status, "workers", "statusz").arr.size(), 2u);
  const json::Value& fams = json::field(status, "families", "statusz");
  ASSERT_TRUE(fams.obj.count("table2-allreduce"));
  server.shutdown();
}

TEST(Protocol, SubmitPollWaitCancelStatusShutdown) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  std::string line = "{\"op\":\"submit\",\"spec\":" +
                     specToJson(table2AllReduceSpec({2, 2, 2})) + "}";
  ProtocolResult sub = handleLine(server, line);
  EXPECT_FALSE(sub.shutdown);
  json::Value resp = json::parse(sub.response, "resp");
  ASSERT_TRUE(json::asBool(json::field(resp, "ok", "r"), "ok"));
  std::uint64_t id = json::asU64(json::field(resp, "id", "r"), "id");

  ProtocolResult waited = handleLine(
      server, "{\"op\":\"wait\",\"id\":" + std::to_string(id) + "}");
  json::Value wr = json::parse(waited.response, "wait");
  const json::Value& job = json::field(wr, "job", "wait");
  EXPECT_EQ(json::asString(json::field(job, "state", "job"), "state"),
            "done");

  ProtocolResult status = handleLine(server, "{\"op\":\"status\"}");
  json::Value st = json::parse(status.response, "status");
  EXPECT_TRUE(json::asBool(json::field(st, "ok", "s"), "ok"));

  ProtocolResult down = handleLine(server, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(down.shutdown);
  server.shutdown();
}

TEST(Protocol, MalformedRequestsKeepTheServerHealthy) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  for (const char* line :
       {"this is not json", "{\"op\":\"no-such-op\"}", "{}",
        "{\"op\":\"submit\",\"spec\":{\"family\":\"no-such-family\"}}",
        "{\"op\":\"submit\",\"spec\":{\"family\":\"quickstart-md\","
        "\"steps\":-1}}",
        "{\"op\":\"poll\",\"id\":999}"}) {
    SCOPED_TRACE(line);
    ProtocolResult r = handleLine(server, line);
    EXPECT_FALSE(r.shutdown);
    json::Value resp = json::parse(r.response, "resp");
    EXPECT_FALSE(json::asBool(json::field(resp, "ok", "r"), "ok"));
  }
  // The daemon still serves real work afterwards.
  SubmitOutcome out = server.submit(table2AllReduceSpec({2, 2, 2}));
  ASSERT_TRUE(out.accepted);
  EXPECT_EQ(server.wait(out.id).state, JobState::kDone);
  server.shutdown();
}

TEST(Protocol, NonIntegerIdsAreRejectedAndTheServerKeepsServing) {
  JobServer server({.workers = 1, .queueCapacity = 4});
  for (const char* line :
       {"{\"op\":\"poll\",\"id\":1e20}", "{\"op\":\"wait\",\"id\":-1}",
        "{\"op\":\"cancel\",\"id\":2.5}"}) {
    SCOPED_TRACE(line);
    ProtocolResult r = handleLine(server, line);
    EXPECT_FALSE(r.shutdown);
    json::Value resp = json::parse(r.response, "resp");
    EXPECT_FALSE(json::asBool(json::field(resp, "ok", "r"), "ok"));
    EXPECT_NE(json::asString(json::field(resp, "error", "r"), "error")
                  .find("request.id"),
              std::string::npos);
  }
  SubmitOutcome out = server.submit(table2AllReduceSpec({2, 2, 2}));
  ASSERT_TRUE(out.accepted);
  EXPECT_EQ(server.wait(out.id).state, JobState::kDone);
  server.shutdown();
}

// --- hostile inputs ----------------------------------------------------------

/// `count` seeded mutants of `text`, each one to three byte flips, deletes,
/// inserts or truncations.
std::vector<std::string> mutants(const std::string& text, std::uint64_t seed,
                                 int count) {
  sim::Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    std::string m = text;
    for (int e = 1 + int(rng.below(3)); e > 0 && !m.empty(); --e) {
      const std::size_t at = rng.below(m.size());
      switch (rng.below(4)) {
        case 0:
          m[at] = char(m[at] ^ (1 << rng.below(8)));
          break;
        case 1:
          m.erase(at, 1);
          break;
        case 2:
          m.insert(at, 1, char(rng.below(256)));
          break;
        default:
          m.resize(at);
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::string readGolden(const std::string& name) {
  std::ifstream in(std::string(GOLDEN_PLANS_DIR) + "/" + name);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(HostileInput, MutatedSpecsRequestsAndPlansParseOrThrow) {
  // Every mutant either parses or throws a std::exception — no crash, hang
  // or undefined behaviour (the sanitizer builds run this too) — and the
  // protocol answers every line with a JSON response.
  const std::vector<std::string> specs = {
      specToJson(quickstartMdSpec()), specToJson(fig5PingSpec()),
      specToJson(table2AllReduceSpec({4, 4, 4})),
      specToJson(faultSweepSpec({2, 2, 2}, 1e-5))};
  const std::vector<std::string> lines = {
      "{\"op\":\"submit\",\"spec\":" + specs[0] +
          ",\"useCache\":true,\"deadlineMs\":5.5}",
      "{\"op\":\"poll\",\"id\":12}", "{\"op\":\"wait\",\"id\":3}",
      "{\"op\":\"cancel\",\"id\":7}", "{\"op\":\"status\"}"};
  const std::vector<std::string> plans = {
      readGolden("fig5-ping.json"), readGolden("table2-allreduce-2x2x2.json")};
  ASSERT_FALSE(plans[0].empty());
  ASSERT_FALSE(plans[1].empty());

  int parsed = 0, thrown = 0;
  auto attempt = [&](const auto& read) {
    try {
      read();
      ++parsed;
    } catch (const std::exception&) {
      ++thrown;
    }
  };
  std::uint64_t seed = 1;
  for (const std::string& spec : specs)
    for (const std::string& m : mutants(spec, seed++, 400))
      attempt([&] { validateSpec(specFromJson(m)); });
  // A shut-down server runs nothing: submits are refused, every id is
  // unknown, so no mutant can start a job or block on one.
  JobServer server({.workers = 1, .queueCapacity = 4});
  server.shutdown();
  for (const std::string& line : lines)
    for (const std::string& m : mutants(line, seed++, 400)) {
      ProtocolResult r = handleLine(server, m);
      json::Value resp = json::parse(r.response, "response");
      json::asBool(json::field(resp, "ok", "response"), "ok");
    }
  for (const std::string& plan : plans)
    for (const std::string& m : mutants(plan, seed++, 100))
      attempt([&] { verify::planFromJson(m); });
  EXPECT_GT(parsed, 0);
  EXPECT_GT(thrown, 0);
}

}  // namespace
}  // namespace anton::serve
