#include "verify/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace anton::verify {
namespace {

// ---- emission (canonical JSON via the shared strict emitter) ---------------

std::string jsonString(const std::string& s) { return util::json::quoted(s); }

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(int v) { return std::to_string(v); }
const char* boolean(bool b) { return b ? "true" : "false"; }

// ---- parsing: the shared strict-JSON reader (util/json.hpp) ---------------

using util::json::Value;

const Value& field(const Value& obj, const std::string& key) {
  return util::json::field(obj, key, "plan snapshot");
}

int jsonInt(const Value& v, const std::string& what) {
  return util::json::asInt(v, "plan snapshot: '" + what + "'");
}

std::uint64_t jsonU64(const Value& v, const std::string& what) {
  return util::json::asU64(v, "plan snapshot: '" + what + "'");
}

const std::string& jsonStr(const Value& v, const std::string& what) {
  return util::json::asString(v, "plan snapshot: '" + what + "'");
}

bool jsonBool(const Value& v, const std::string& what) {
  return util::json::asBool(v, "plan snapshot: '" + what + "'");
}

/// `v` as a T; throws when it does not fit (the rows' fields are narrower
/// than the snapshot's integers).
template <typename T, typename V>
T narrow(V v, const std::string& what) {
  if (!std::in_range<T>(v))
    throw std::runtime_error("plan snapshot: '" + what + "' out of range");
  return T(v);
}

std::string clientLabel(const net::ClientAddr& a) {
  return "node " + std::to_string(a.node) + "/client " +
         std::to_string(a.client);
}

/// "n/c" per distinct destination client, ascending.
std::string dests(std::span<const net::ClientAddr> v) {
  std::set<std::pair<int, int>> s;
  for (const net::ClientAddr& a : v) s.insert({a.node, a.client});
  std::string out;
  for (const auto& [n, c] : s) {
    if (!out.empty()) out += ",";
    out += std::to_string(n) + "/" + std::to_string(c);
  }
  return out;
}

/// One plan's records of a diff category: record key -> the facts compared.
using Records = std::map<std::string, std::string>;

}  // namespace

std::string planToJson(const CommPlan& plan) {
  std::ostringstream o;
  o << "{\n";
  o << "  \"name\": " << jsonString(plan.name) << ",\n";
  o << "  \"shape\": [" << plan.shape.nx << ", " << plan.shape.ny << ", "
    << plan.shape.nz << "],\n";

  o << "  \"phases\": [";
  for (std::size_t i = 0; i < plan.phases.size(); ++i)
    o << (i ? ", " : "") << jsonString(plan.phases[i]);
  o << "],\n";

  o << "  \"phaseEdges\": [";
  for (std::size_t i = 0; i < plan.phaseEdges.size(); ++i)
    o << (i ? ", " : "") << "[" << plan.phaseEdges[i].first << ", "
      << plan.phaseEdges[i].second << "]";
  o << "],\n";

  o << "  \"writes\": [";
  for (std::size_t i = 0; i < plan.writes.size(); ++i) {
    const PlannedWrite& w = plan.writes[i];
    o << (i ? ",\n    " : "\n    ");
    o << "{\"phase\": " << jsonString(plan.phaseName(w.phase))
      << ", \"srcNode\": "
      << num(w.srcNode) << ", \"dstNode\": " << num(w.dst.node)
      << ", \"dstClient\": " << num(w.dst.client) << ", \"pattern\": "
      << num(w.pattern) << ", \"counterId\": " << num(w.counterId)
      << ", \"packets\": " << num(std::uint64_t(w.packets)) << ", \"inOrder\": "
      << boolean(w.inOrder) << ", \"fifo\": " << boolean(w.fifo)
      << ", \"seq\": " << num(w.seq);
    if (w.bytes != 0) o << ", \"bytes\": " << num(std::uint64_t(w.bytes));
    o << "}";
  }
  o << (plan.writes.empty() ? "],\n" : "\n  ],\n");

  o << "  \"expectations\": [";
  for (std::size_t i = 0; i < plan.expectations.size(); ++i) {
    const CounterExpectation& e = plan.expectations[i];
    o << (i ? ",\n    " : "\n    ");
    o << "{\"site\": " << jsonString(plan.nameOf(e.site)) << ", \"phase\": "
      << jsonString(plan.phaseName(e.phase))
      << ", \"node\": " << num(e.client.node)
      << ", \"client\": " << num(e.client.client) << ", \"counterId\": "
      << num(e.counterId) << ", \"perRound\": " << num(e.perRound)
      << ", \"bySource\": {";
    bool first = true;
    for (const SourceCount& by : plan.bySource(e)) {
      o << (first ? "" : ", ") << jsonString(std::to_string(by.src)) << ": "
        << num(by.packets);
      first = false;
    }
    o << "}, \"recoveryArmed\": " << boolean(e.recoveryArmed)
      << ", \"seq\": " << num(e.seq) << "}";
  }
  o << (plan.expectations.empty() ? "],\n" : "\n  ],\n");

  o << "  \"multicasts\": [";
  for (std::size_t i = 0; i < plan.multicasts.size(); ++i) {
    const MulticastPlanEntry& m = plan.multicasts[i];
    o << (i ? ",\n    " : "\n    ");
    o << "{\"patternId\": " << num(m.patternId) << ", \"srcNode\": "
      << num(m.srcNode) << ", \"entries\": {";
    bool first = true;
    for (const auto& [node, e] : plan.tree(m).rows) {
      o << (first ? "" : ", ") << jsonString(std::to_string(node))
        << ": [" << num(int(e.clientMask)) << ", " << num(int(e.linkMask))
        << "]";
      first = false;
    }
    o << "}, \"declaredDests\": [";
    const std::span<const net::ClientAddr> to = plan.tree(m).dests;
    for (std::size_t d = 0; d < to.size(); ++d)
      o << (d ? ", " : "") << "[" << to[d].node << ", " << to[d].client << "]";
    o << "]}";
  }
  o << (plan.multicasts.empty() ? "],\n" : "\n  ],\n");

  o << "  \"buffers\": [";
  for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
    const BufferPlan& b = plan.buffers[i];
    o << (i ? ",\n    " : "\n    ");
    o << "{\"name\": " << jsonString(plan.nameOf(b.name)) << ", \"node\": "
      << num(b.client.node) << ", \"client\": " << num(b.client.client)
      << ", \"base\": " << num(std::uint64_t(b.base)) << ", \"bytes\": "
      << num(std::uint64_t(b.bytes)) << ", \"copies\": " << num(b.copies)
      << ", \"freePhase\": " << jsonString(plan.phaseName(b.freePhase))
      << ", \"writers\": [";
    const std::span<const BufferWriter> ws = plan.writersOf(b);
    for (std::size_t w = 0; w < ws.size(); ++w)
      o << (w ? ", " : "") << "[" << ws[w].node << ", "
        << jsonString(plan.phaseName(ws[w].phase)) << "]";
    o << "]}";
  }
  o << (plan.buffers.empty() ? "]\n" : "\n  ]\n");

  o << "}\n";
  return o.str();
}

CommPlan planFromJson(const std::string& json) {
  Value root = util::json::parse(json, "plan snapshot");
  if (root.type != Value::kObject)
    throw std::runtime_error("plan snapshot: document is not an object");

  CommPlan plan;
  plan.name = jsonStr(field(root, "name"), "name");
  const Value& shape = field(root, "shape");
  if (shape.type != Value::kArray || shape.arr.size() != 3)
    throw std::runtime_error("plan snapshot: 'shape' is not a 3-array");
  plan.shape = {jsonInt(shape.arr[0], "shape.x"), jsonInt(shape.arr[1], "shape.y"),
                jsonInt(shape.arr[2], "shape.z")};

  for (const Value& p : field(root, "phases").arr)
    plan.phases.push_back(jsonStr(p, "phase"));
  for (const Value& e : field(root, "phaseEdges").arr) {
    if (e.type != Value::kArray || e.arr.size() != 2)
      throw std::runtime_error("plan snapshot: phase edge is not a pair");
    plan.phaseEdges.emplace_back(jsonInt(e.arr[0], "edge.from"),
                                 jsonInt(e.arr[1], "edge.to"));
  }

  // Records name phases; each must be one of `phases`.
  auto phaseOf = [&plan](const Value& v, const std::string& what) {
    const std::string& name = jsonStr(v, what);
    auto it = std::find(plan.phases.begin(), plan.phases.end(), name);
    if (it == plan.phases.end())
      throw std::runtime_error("plan snapshot: '" + what + "' names phase '" +
                               name + "', which is not in 'phases'");
    return narrow<std::uint16_t>(it - plan.phases.begin(), what);
  };

  for (const Value& jw : field(root, "writes").arr) {
    PlannedWrite w;
    w.phase = phaseOf(field(jw, "phase"), "write.phase");
    w.srcNode = jsonInt(field(jw, "srcNode"), "write.srcNode");
    w.dst = {jsonInt(field(jw, "dstNode"), "write.dstNode"),
             jsonInt(field(jw, "dstClient"), "write.dstClient")};
    w.pattern = jsonInt(field(jw, "pattern"), "write.pattern");
    w.counterId = jsonInt(field(jw, "counterId"), "write.counterId");
    w.packets = narrow<std::uint32_t>(
        jsonU64(field(jw, "packets"), "write.packets"), "write.packets");
    w.inOrder = jsonBool(field(jw, "inOrder"), "write.inOrder");
    if (const Value* f = util::json::optField(jw, "fifo"))
      w.fifo = jsonBool(*f, "write.fifo");
    if (const Value* s = util::json::optField(jw, "seq"))
      w.seq = jsonInt(*s, "write.seq");
    if (const Value* by = util::json::optField(jw, "bytes"))
      w.bytes = std::uint32_t(jsonU64(*by, "write.bytes"));
    plan.writes.push_back(w);
  }

  for (const Value& je : field(root, "expectations").arr) {
    CounterExpectation e;
    e.site = narrow<std::uint16_t>(
        plan.addName(jsonStr(field(je, "site"), "expectation.site")),
        "expectation.site");
    e.phase = phaseOf(field(je, "phase"), "expectation.phase");
    e.client = {jsonInt(field(je, "node"), "expectation.node"),
                jsonInt(field(je, "client"), "expectation.client")};
    e.counterId = jsonInt(field(je, "counterId"), "expectation.counterId");
    e.perRound = jsonU64(field(je, "perRound"), "expectation.perRound");
    // Object keys come back in string order ("10" before "2"): addSource
    // restores the numeric order.
    const std::size_t first = plan.sources.size();
    for (const auto& [src, n] : field(je, "bySource").obj)
      addSource(plan.sources, first, std::stoi(src),
                jsonU64(n, "expectation.bySource"));
    e.bySource = {std::uint32_t(first), std::uint32_t(plan.sources.size())};
    e.recoveryArmed =
        jsonBool(field(je, "recoveryArmed"), "expectation.recoveryArmed");
    if (const Value* s = util::json::optField(je, "seq"))
      e.seq = jsonInt(*s, "expectation.seq");
    plan.expectations.push_back(e);
  }

  std::vector<TreeRow> rows;
  std::vector<net::ClientAddr> dests;
  for (const Value& jm : field(root, "multicasts").arr) {
    rows.clear();
    dests.clear();
    for (const auto& [node, row] : field(jm, "entries").obj) {
      if (row.type != Value::kArray || row.arr.size() != 2)
        throw std::runtime_error(
            "plan snapshot: multicast table row is not a mask pair");
      rows.push_back(
          {std::stoi(node),
           {std::uint8_t(jsonInt(row.arr[0], "multicast.clientMask")),
            std::uint8_t(jsonInt(row.arr[1], "multicast.linkMask"))}});
    }
    for (const Value& d : field(jm, "declaredDests").arr) {
      if (d.type != Value::kArray || d.arr.size() != 2)
        throw std::runtime_error("plan snapshot: dest is not a pair");
      dests.push_back(
          {jsonInt(d.arr[0], "dest.node"), jsonInt(d.arr[1], "dest.client")});
    }
    // addTree re-sorts the rows by node, out of the keys' string order.
    plan.addTree(jsonInt(field(jm, "patternId"), "multicast.patternId"),
                 jsonInt(field(jm, "srcNode"), "multicast.srcNode"), rows,
                 dests);
  }

  for (const Value& jb : field(root, "buffers").arr) {
    BufferPlan b;
    b.name = narrow<std::uint16_t>(
        plan.addName(jsonStr(field(jb, "name"), "buffer.name")),
        "buffer.name");
    b.client = {jsonInt(field(jb, "node"), "buffer.node"),
                jsonInt(field(jb, "client"), "buffer.client")};
    b.base = std::uint32_t(jsonU64(field(jb, "base"), "buffer.base"));
    b.bytes = std::uint32_t(jsonU64(field(jb, "bytes"), "buffer.bytes"));
    b.copies = jsonInt(field(jb, "copies"), "buffer.copies");
    b.freePhase = phaseOf(field(jb, "freePhase"), "buffer.freePhase");
    b.writers.begin = std::uint32_t(plan.writers.size());
    for (const Value& w : field(jb, "writers").arr) {
      if (w.type != Value::kArray || w.arr.size() != 2)
        throw std::runtime_error("plan snapshot: writer is not a pair");
      plan.writers.push_back({jsonInt(w.arr[0], "writer.node"),
                              phaseOf(w.arr[1], "writer.phase")});
    }
    b.writers.end = std::uint32_t(plan.writers.size());
    plan.buffers.push_back(b);
  }
  return plan;
}

PlanDelta diffPlans(const CommPlan& a, const CommPlan& b) {
  PlanDelta delta;
  // Each category is summarized per record key on both sides: a key on one
  // side only, or with different facts, is one delta entry.
  auto compare = [&delta](const char* category, const Records& x,
                          const Records& y) {
    auto only = [](const char* side, const std::string& facts) {
      return std::string("only in ") + side + " plan" +
             (facts.empty() ? "" : " (" + facts + ")");
    };
    for (const auto& [key, facts] : x) {
      auto it = y.find(key);
      if (it == y.end())
        delta.entries.push_back({category, key, only("first", facts)});
      else if (it->second != facts)
        delta.entries.push_back({category, key, facts + " vs " + it->second});
    }
    for (const auto& [key, facts] : y)
      if (!x.count(key))
        delta.entries.push_back({category, key, only("second", facts)});
  };

  if (!(a.shape == b.shape))
    delta.entries.push_back(
        {"shape", "machine", a.shape.str() + " vs " + b.shape.str()});

  // Phases and their DAG by name, so two plans that list the same program
  // in different orders are identical.
  auto phases = [](const CommPlan& plan) {
    Records out;
    for (const std::string& p : plan.phases) out[p];
    for (const auto& [f, t] : plan.phaseEdges)
      out[plan.phaseName(std::size_t(f)) + " -> " +
          plan.phaseName(std::size_t(t))] = "program-order edge";
    return out;
  };
  // Writes, aggregated per (phase, source, target, counter).
  auto writes = [](const CommPlan& plan) {
    // packets, payload bytes, fifo records, in-order records
    std::map<std::string, std::array<std::uint64_t, 4>> agg;
    for (const PlannedWrite& w : plan.writes) {
      const std::string target =
          w.pattern != net::kNoMulticast
              ? "pattern " + std::to_string(w.pattern)
              : clientLabel(w.dst);
      auto& x = agg[plan.phaseName(w.phase) + " | node " +
                    std::to_string(w.srcNode) + " -> " + target + " | ctr " +
                    std::to_string(w.counterId)];
      x[0] += w.packets;
      x[1] += std::uint64_t(w.packets) * w.bytes;
      x[2] += w.fifo ? 1 : 0;
      x[3] += w.inOrder ? 1 : 0;
    }
    Records out;
    for (const auto& [key, x] : agg)
      out[key] = std::to_string(x[0]) + " packets/round, " +
                 std::to_string(x[1]) + " payload bytes/round, " +
                 std::to_string(x[2]) + " fifo and " + std::to_string(x[3]) +
                 " in-order record(s)";
    return out;
  };
  // Expectations per (site, client, counter).
  auto expectations = [](const CommPlan& plan) {
    std::map<std::string, std::array<std::uint64_t, 2>> agg;
    for (const CounterExpectation& e : plan.expectations) {
      auto& x = agg[plan.nameOf(e.site) + " | " + clientLabel(e.client) +
                    " | ctr " + std::to_string(e.counterId)];
      x[0] += e.perRound;
      x[1] += e.recoveryArmed ? 1 : 0;
    }
    Records out;
    for (const auto& [key, x] : agg)
      out[key] = std::to_string(x[0]) + " expected packets/round, " +
                 std::to_string(x[1]) + " recovery-armed record(s)";
    return out;
  };
  // Multicast trees per (pattern, source): forwarding-table rows and the
  // declared destination set.
  auto trees = [](const CommPlan& plan) {
    Records out;
    for (const MulticastPlanEntry& m : plan.multicasts) {
      std::string facts = "rows (node:clients/links)";
      for (const auto& [node, e] : plan.tree(m).rows)
        facts.append(" ").append(std::to_string(node)).append(":")
            .append(std::to_string(int(e.clientMask))).append("/")
            .append(std::to_string(int(e.linkMask)));
      out["pattern " + std::to_string(m.patternId) + " @ node " +
          std::to_string(m.srcNode)] =
          facts + "; declared dests " + dests(plan.tree(m).dests);
    }
    return out;
  };
  // Buffer lifetimes per (name, owner).
  auto buffers = [](const CommPlan& plan) {
    Records out;
    for (const BufferPlan& bp : plan.buffers) {
      std::set<std::string> writers;
      for (const BufferWriter& w : plan.writersOf(bp))
        writers.insert(std::to_string(w.node) + ":" + plan.phaseName(w.phase));
      std::string facts = std::to_string(bp.copies) + " cop(ies) at " +
                          std::to_string(bp.base) + "+" +
                          std::to_string(bp.bytes) + ", freed in '" +
                          plan.phaseName(bp.freePhase) + "', writers";
      for (const std::string& w : writers) facts += " " + w;
      out[plan.nameOf(bp.name) + " @ " + clientLabel(bp.client)] = facts;
    }
    return out;
  };
  compare("phase", phases(a), phases(b));
  compare("write", writes(a), writes(b));
  compare("expectation", expectations(a), expectations(b));
  compare("multicast", trees(a), trees(b));
  compare("buffer", buffers(a), buffers(b));
  return delta;
}

std::uint64_t planKey(const CommPlan& plan) {
  return util::fnv1a64(planToJson(plan));
}

std::string planKeyHex(const CommPlan& plan) {
  return util::hex64(planKey(plan));
}

}  // namespace anton::verify
