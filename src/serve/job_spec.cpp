#include "serve/job_spec.hpp"

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

namespace anton::serve {
namespace {

namespace json = util::json;

bool parseShapeInto(const std::string& s, util::TorusShape* out) {
  int v[3] = {0, 0, 0};
  std::size_t pos = 0;
  for (int d = 0; d < 3; ++d) {
    std::size_t next = d < 2 ? s.find('x', pos) : s.size();
    if (next == std::string::npos || next == pos) return false;
    int val = 0;
    for (std::size_t i = pos; i < next; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      val = val * 10 + (s[i] - '0');
      if (val > 1 << 20) return false;
    }
    v[d] = val;
    pos = next + 1;
  }
  *out = {v[0], v[1], v[2]};
  return true;
}

}  // namespace

util::TorusShape parseShape(const std::string& s) {
  util::TorusShape shape{0, 0, 0};
  if (!parseShapeInto(s, &shape))
    throw std::runtime_error("malformed torus shape \"" + s +
                             "\" (want AxBxC)");
  return shape;
}

const char* familyName(JobFamily f) {
  switch (f) {
    case JobFamily::kQuickstartMd: return "quickstart-md";
    case JobFamily::kFig5Ping: return "fig5-ping";
    case JobFamily::kTable2AllReduce: return "table2-allreduce";
    case JobFamily::kFaultSweep: return "fault-sweep";
  }
  return "?";
}

JobFamily parseFamily(const std::string& name) {
  for (JobFamily f : {JobFamily::kQuickstartMd, JobFamily::kFig5Ping,
                      JobFamily::kTable2AllReduce, JobFamily::kFaultSweep})
    if (name == familyName(f)) return f;
  throw std::invalid_argument("unknown job family: " + name);
}

std::string specToJson(const JobSpec& s) {
  std::ostringstream os;
  os << "{\"family\":" << json::quoted(familyName(s.family))
     << ",\"shape\":" << json::quoted(s.shape.str())
     << ",\"seed\":" << s.seed << ",\"steps\":" << s.steps
     << ",\"atoms\":" << s.atoms << ",\"maxHops\":" << s.maxHops
     << ",\"payloadBytes\":" << s.payloadBytes << ",\"words\":" << s.words
     << ",\"bitErrorRate\":" << json::number(s.bitErrorRate)
     << ",\"maxRetransmits\":" << s.maxRetransmits
     << ",\"degradedMode\":" << (s.degradedMode ? "true" : "false")
     << ",\"recoveryTimeoutUs\":" << json::number(s.recoveryTimeoutUs)
     << ",\"recoveryMaxResends\":" << s.recoveryMaxResends
     << ",\"recoveryBackoffUs\":" << json::number(s.recoveryBackoffUs)
     << "}";
  return os.str();
}

JobSpec specFromValue(const json::Value& v) {
  if (v.type != json::Value::kObject)
    throw std::runtime_error("job spec must be a JSON object");
  static const std::set<std::string> kKnown = {
      "family",        "shape",          "seed",
      "steps",         "atoms",          "maxHops",
      "payloadBytes",  "words",          "bitErrorRate",
      "maxRetransmits", "degradedMode",  "recoveryTimeoutUs",
      "recoveryMaxResends", "recoveryBackoffUs"};
  for (const auto& [key, value] : v.obj)
    if (!kKnown.count(key))
      throw std::runtime_error("job spec: unknown field \"" + key + "\"");

  JobSpec s;
  s.family = parseFamily(
      json::asString(json::field(v, "family", "spec.family"), "spec.family"));
  if (const json::Value* f = json::optField(v, "shape")) {
    if (!parseShapeInto(json::asString(*f, "spec.shape"), &s.shape))
      throw std::runtime_error("job spec: shape must look like \"4x4x4\"");
  }
  auto getInt = [&](const char* key, int* out) {
    if (const json::Value* f = json::optField(v, key))
      *out = json::asInt(*f, std::string("spec.") + key);
  };
  auto getDouble = [&](const char* key, double* out) {
    if (const json::Value* f = json::optField(v, key))
      *out = json::asDouble(*f, std::string("spec.") + key);
  };
  if (const json::Value* f = json::optField(v, "seed"))
    s.seed = json::asU64(*f, "spec.seed");
  getInt("steps", &s.steps);
  getInt("atoms", &s.atoms);
  getInt("maxHops", &s.maxHops);
  getInt("payloadBytes", &s.payloadBytes);
  getInt("words", &s.words);
  getDouble("bitErrorRate", &s.bitErrorRate);
  getInt("maxRetransmits", &s.maxRetransmits);
  if (const json::Value* f = json::optField(v, "degradedMode"))
    s.degradedMode = json::asBool(*f, "spec.degradedMode");
  getDouble("recoveryTimeoutUs", &s.recoveryTimeoutUs);
  getInt("recoveryMaxResends", &s.recoveryMaxResends);
  getDouble("recoveryBackoffUs", &s.recoveryBackoffUs);
  return s;
}

JobSpec specFromJson(const std::string& text) {
  return specFromValue(json::parse(text, "job spec"));
}

std::vector<std::string> validateSpec(const JobSpec& s) {
  std::vector<std::string> errs;
  auto err = [&](const std::string& m) { errs.push_back(m); };

  if (s.shape.nx < 1 || s.shape.ny < 1 || s.shape.nz < 1)
    err("shape extents must all be >= 1");
  else if (s.shape.size() > 4096)
    err("shape too large: " + std::to_string(s.shape.size()) +
        " nodes exceeds the 4096-node service cap");
  if (!std::isfinite(s.bitErrorRate) || s.bitErrorRate < 0.0 ||
      s.bitErrorRate > 0.01)
    err("bitErrorRate must be in [0, 0.01]");
  if (s.maxRetransmits < 1 || s.maxRetransmits > 64)
    err("maxRetransmits must be in [1, 64]");
  if (!std::isfinite(s.recoveryTimeoutUs) || s.recoveryTimeoutUs < 0.0)
    err("recoveryTimeoutUs must be finite and >= 0");
  if (s.recoveryMaxResends < 0 || s.recoveryMaxResends > 1000)
    err("recoveryMaxResends must be in [0, 1000]");
  if (!std::isfinite(s.recoveryBackoffUs) || s.recoveryBackoffUs < 0.0)
    err("recoveryBackoffUs must be finite and >= 0");

  switch (s.family) {
    case JobFamily::kQuickstartMd:
      if (s.steps < 1 || s.steps > 10000)
        err("steps must be in [1, 10000]");
      if (s.atoms < 64 || s.atoms > 100000)
        err("atoms must be in [64, 100000]");
      break;
    case JobFamily::kFig5Ping:
      if (!(s.shape == util::TorusShape{8, 8, 8}))
        err("fig5-ping runs on the paper's 8x8x8 torus (shape must be "
            "\"8x8x8\")");
      if (s.maxHops < 0 || s.maxHops > 12)
        err("maxHops must be in [0, 12]");
      if (s.payloadBytes < 0 || s.payloadBytes > 2048)
        err("payloadBytes must be in [0, 2048]");
      break;
    case JobFamily::kTable2AllReduce:
    case JobFamily::kFaultSweep:
      if (s.words < 0 || s.words > 1024)
        err("words must be in [0, 1024]");
      if (s.family == JobFamily::kFaultSweep && s.recoveryTimeoutUs <= 0.0)
        err("fault-sweep requires recoveryTimeoutUs > 0 (armed waits)");
      break;
  }
  return errs;
}

JobSpec quickstartMdSpec(int steps) {
  JobSpec s;
  s.family = JobFamily::kQuickstartMd;
  s.shape = {4, 4, 4};
  s.steps = steps;
  s.atoms = 1536;
  return s;
}

JobSpec fig5PingSpec(int maxHops, int payloadBytes) {
  JobSpec s;
  s.family = JobFamily::kFig5Ping;
  s.shape = {8, 8, 8};
  s.maxHops = maxHops;
  s.payloadBytes = payloadBytes;
  return s;
}

JobSpec table2AllReduceSpec(util::TorusShape shape, int words) {
  JobSpec s;
  s.family = JobFamily::kTable2AllReduce;
  s.shape = shape;
  s.words = words;
  return s;
}

JobSpec faultSweepSpec(util::TorusShape shape, double bitErrorRate,
                       int maxRetransmits) {
  JobSpec s;
  s.family = JobFamily::kFaultSweep;
  s.shape = shape;
  s.bitErrorRate = bitErrorRate;
  s.maxRetransmits = maxRetransmits;
  // The fault sweep's armed-hooks tuning: short deadline, deep budget.
  s.recoveryTimeoutUs = 1000.0;
  s.recoveryMaxResends = 10;
  s.recoveryBackoffUs = 0.5;
  return s;
}

}  // namespace anton::serve
