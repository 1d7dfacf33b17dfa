// simd_client: submit/poll/cancel CLI for the simulation service.
//
// Talks the line-delimited JSON protocol to a simd_server over its AF_UNIX
// socket. Exit status is the contract CI scripts rely on: 0 only when the
// request succeeded AND (for submit --wait / wait) the job finished kDone;
// rejected submissions, malformed specs, failed/cancelled/expired jobs and
// transport errors all exit nonzero while the daemon stays up.
//
// Usage:
//   simd_client --socket PATH submit --family F [flags...] [--wait]
//   simd_client --socket PATH wait ID | poll ID | cancel ID
//   simd_client --socket PATH status | shutdown
//
// submit flags (per family; defaults from the JobSpec factories):
//   --family quickstart-md|fig5-ping|table2-allreduce|fault-sweep
//   --shape AxBxC   --seed N      --steps N     --atoms N
//   --max-hops N    --payload N   --words N
//   --ber X         --max-retransmits N         --degraded
//   --recovery-timeout-us X  --recovery-max-resends N  --recovery-backoff-us X
//   --no-cache      --deadline-ms X             --wait

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "serve/job_spec.hpp"
#include "util/json.hpp"

namespace {

namespace json = anton::util::json;
using anton::serve::JobSpec;

/// Thread-safe errno rendering (std::strerror is not).
std::string errnoStr() {
  return std::generic_category().message(errno);
}

/// Bad command line: caught in main, printed with usage, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One request line out, one response line back.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket", errnoStr());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
      fail("connect", "socket path too long");
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
      fail("connect " + path, errnoStr());
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  json::Value request(const std::string& line) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      ssize_t put = ::write(fd_, out.data() + off, out.size() - off);
      if (put <= 0) fail("write", errnoStr());
      off += std::size_t(put);
    }
    std::string response;
    for (;;) {
      std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        break;
      }
      char chunk[4096];
      ssize_t got = ::read(fd_, chunk, sizeof chunk);
      if (got <= 0) fail("read", "connection closed by server");
      buffer_.append(chunk, std::size_t(got));
    }
    std::cout << response << "\n";
    return json::parse(response, "response");
  }

 private:
  [[noreturn]] static void fail(const std::string& what,
                                const std::string& detail) {
    throw std::runtime_error(what + ": " + detail);
  }
  int fd_ = -1;
  std::string buffer_;
};

bool responseOk(const json::Value& resp) {
  const json::Value* ok = json::optField(resp, "ok");
  return ok != nullptr && ok->type == json::Value::kBool && ok->b;
}

/// 0 only when the job reached kDone.
int jobExitCode(const json::Value& resp) {
  const json::Value* job = json::optField(resp, "job");
  if (job == nullptr) return 1;
  const std::string& state =
      json::asString(json::field(*job, "state", "job.state"), "job.state");
  return state == "done" ? 0 : 1;
}

[[noreturn]] void usage(const std::string& message) {
  throw UsageError(message);
}

int runSubmit(Connection& conn, int argc, char** argv, int i) {
  // Start from the family factory so defaults match the library, then let
  // flags override individual fields.
  std::string family;
  JobSpec spec;
  bool useCache = true;
  bool wait = false;
  double deadlineMs = 0;
  struct Override {
    std::string flag;
    std::string value;
  };
  std::vector<Override> overrides;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--family") {
      family = value();
    } else if (arg == "--no-cache") {
      useCache = false;
    } else if (arg == "--wait") {
      wait = true;
    } else if (arg == "--deadline-ms") {
      deadlineMs = std::stod(value());
    } else if (arg == "--degraded") {
      overrides.push_back({arg, "1"});
    } else {
      overrides.push_back({arg, value()});
    }
  }
  if (family.empty()) usage("submit needs --family");
  spec.family = anton::serve::parseFamily(family);
  switch (spec.family) {
    case anton::serve::JobFamily::kQuickstartMd:
      spec = anton::serve::quickstartMdSpec();
      break;
    case anton::serve::JobFamily::kFig5Ping:
      spec = anton::serve::fig5PingSpec();
      break;
    case anton::serve::JobFamily::kTable2AllReduce:
      spec = anton::serve::table2AllReduceSpec(spec.shape);
      break;
    case anton::serve::JobFamily::kFaultSweep:
      spec = anton::serve::faultSweepSpec(spec.shape, 0.0);
      break;
  }
  for (const Override& o : overrides) {
    if (o.flag == "--shape") {
      spec.shape = anton::serve::parseShape(o.value);
    } else if (o.flag == "--seed") {
      spec.seed = std::stoul(o.value);
    } else if (o.flag == "--steps") {
      spec.steps = std::stoi(o.value);
    } else if (o.flag == "--atoms") {
      spec.atoms = std::stoi(o.value);
    } else if (o.flag == "--max-hops") {
      spec.maxHops = std::stoi(o.value);
    } else if (o.flag == "--payload") {
      spec.payloadBytes = std::stoi(o.value);
    } else if (o.flag == "--words") {
      spec.words = std::stoi(o.value);
    } else if (o.flag == "--ber") {
      spec.bitErrorRate = std::stod(o.value);
    } else if (o.flag == "--max-retransmits") {
      spec.maxRetransmits = std::stoi(o.value);
    } else if (o.flag == "--degraded") {
      spec.degradedMode = true;
    } else if (o.flag == "--recovery-timeout-us") {
      spec.recoveryTimeoutUs = std::stod(o.value);
    } else if (o.flag == "--recovery-max-resends") {
      spec.recoveryMaxResends = std::stoi(o.value);
    } else if (o.flag == "--recovery-backoff-us") {
      spec.recoveryBackoffUs = std::stod(o.value);
    } else {
      usage("unknown submit flag " + o.flag);
    }
  }

  std::ostringstream req;
  req << "{\"op\":\"submit\",\"spec\":" << anton::serve::specToJson(spec)
      << ",\"useCache\":" << (useCache ? "true" : "false")
      << ",\"deadlineMs\":" << json::number(deadlineMs) << "}";
  json::Value resp = conn.request(req.str());
  if (!responseOk(resp)) return 1;
  if (!wait) return 0;
  std::uint64_t id = json::asU64(json::field(resp, "id", "response.id"),
                                 "response.id");
  json::Value done =
      conn.request("{\"op\":\"wait\",\"id\":" + std::to_string(id) + "}");
  if (!responseOk(done)) return 1;
  return jobExitCode(done);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string socketPath;
    int i = 1;
    if (i + 1 < argc && std::string(argv[i]) == "--socket") {
      socketPath = argv[i + 1];
      i += 2;
    }
    if (socketPath.empty()) usage("pass --socket PATH first");
    if (i >= argc) usage("missing command");
    std::string cmd = argv[i++];

    Connection conn(socketPath);
    if (cmd == "submit") return runSubmit(conn, argc, argv, i);
    if (cmd == "wait" || cmd == "poll" || cmd == "cancel") {
      if (i >= argc) usage(cmd + " needs a job id");
      std::string id = argv[i];
      json::Value resp = conn.request("{\"op\":\"" + cmd +
                                      "\",\"id\":" + id + "}");
      if (!responseOk(resp)) return 1;
      return cmd == "wait" ? jobExitCode(resp) : 0;
    }
    if (cmd == "status")
      return responseOk(conn.request("{\"op\":\"status\"}")) ? 0 : 1;
    if (cmd == "shutdown")
      return responseOk(conn.request("{\"op\":\"shutdown\"}")) ? 0 : 1;
    usage("unknown command " + cmd);
  } catch (const UsageError& e) {
    std::cerr << "simd_client: " << e.what() << "\n"
              << "usage: simd_client --socket PATH"
                 " (submit|wait|poll|cancel|status|shutdown) ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "simd_client: " << e.what() << "\n";
    return 1;
  }
}
