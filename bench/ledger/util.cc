// Timing, percentile, input-generation and host-record helpers (ledger.h).
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/serialize.h"
#include "data/zipf.h"
#include "ledger.h"

namespace ledger {

ldpjs::SketchParams Params() {
  ldpjs::SketchParams params;
  params.k = kSketchRows;
  params.m = kSketchCols;
  params.seed = kHashSeed;
  return params;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {
uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WindowedRate(const std::vector<Completion>& completions,
                    uint64_t start_ns, uint64_t end_ns) {
  const double window_ns =
      static_cast<double>(end_ns - start_ns) / kRateWindows;
  std::vector<double> items(kRateWindows, 0.0);
  for (const Completion& done : completions) {
    const auto window = static_cast<size_t>(
        static_cast<double>(done.at_ns - start_ns) / window_ns);
    if (done.at_ns >= start_ns && window < items.size()) {
      items[window] += static_cast<double>(done.items);
    }
  }
  return Median(items) / (window_ns / 1e9);
}

void Check(const ldpjs::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

std::unique_ptr<ldpjs::FrameServer> StartServer(size_t shards) {
  ldpjs::FrameServerOptions options;
  options.num_shards = shards;
  options.backpressure = ldpjs::BackpressurePolicy::kBlock;
  auto server = std::make_unique<ldpjs::FrameServer>(Params(), kEpsilon, options);
  Check(server->Start(), "FrameServer::Start");
  return server;
}

ldpjs::FrameSender ConnectTo(uint16_t port) {
  auto sender = ldpjs::FrameSender::Connect("127.0.0.1", port, Params(), kEpsilon);
  Check(sender.status(), "FrameSender::Connect");
  return std::move(*sender);
}

std::vector<uint64_t> ZipfKeys(uint64_t count, uint64_t seed) {
  ldpjs::ZipfParams zipf;
  zipf.alpha = kZipfAlpha;
  zipf.domain = kZipfDomain;
  zipf.rows = count;
  zipf.seed = seed;
  return ldpjs::GenerateZipf(zipf).values();
}

std::vector<ldpjs::LdpReport> PerturbKeys(std::span<const uint64_t> keys,
                                          uint64_t run_seed) {
  const ldpjs::LdpJoinSketchClient client(Params(), kEpsilon);
  std::vector<ldpjs::LdpReport> reports(keys.size());
  const size_t block = ldpjs::kMaxWireBatchReports;
  for (size_t first = 0; first < keys.size(); first += block) {
    const size_t count = std::min(block, keys.size() - first);
    ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(run_seed, first / block);
    client.PerturbBatch(keys.subspan(first, count),
                        std::span(reports).subspan(first, count), rng);
  }
  return reports;
}

std::vector<std::vector<uint8_t>> EncodeFrames(
    std::span<const ldpjs::LdpReport> reports, size_t per_frame) {
  std::vector<std::vector<uint8_t>> frames;
  for (size_t first = 0; first < reports.size(); first += per_frame) {
    ldpjs::BinaryWriter writer;
    ldpjs::EncodeReportBatch(
        reports.subspan(first, std::min(per_frame, reports.size() - first)),
        writer);
    frames.push_back(writer.TakeBuffer());
  }
  return frames;
}

std::vector<int64_t> LanesOf(const ldpjs::LdpJoinSketchServer& sketch) {
  const ldpjs::SketchParams& params = sketch.params();
  std::vector<int64_t> lanes;
  lanes.reserve(static_cast<size_t>(params.k) * static_cast<size_t>(params.m));
  for (int row = 0; row < params.k; ++row) {
    for (int col = 0; col < params.m; ++col) lanes.push_back(sketch.lane(row, col));
  }
  return lanes;
}

std::vector<int64_t> LanesOf(std::span<const ldpjs::LdpReport> reports) {
  ldpjs::LdpJoinSketchServer sketch(Params(), kEpsilon);
  sketch.AbsorbBatch(reports);
  return LanesOf(sketch);
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Trim(std::string text) {
  const auto not_space = [](unsigned char c) { return !std::isspace(c); };
  text.erase(text.begin(), std::find_if(text.begin(), text.end(), not_space));
  text.erase(std::find_if(text.rbegin(), text.rend(), not_space).base(),
             text.end());
  return text;
}

std::string ReadLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return Trim(line);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return Trim(line.substr(line.find(':') + 1));
    }
  }
  return "unknown";
}

std::string CachesJson() {
  std::string json = "{";
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    const std::string level = ReadLine(dir + "level");
    if (level.empty()) break;
    std::string type = ReadLine(dir + "type");
    const std::string tag = "L" + level +
                            (type == "Data"          ? "d"
                             : type == "Instruction" ? "i"
                                                     : "");
    json += (json.size() > 1 ? ", \"" : "\"") + tag + "\": \"" +
            JsonEscape(ReadLine(dir + "size")) + "\"";
  }
  return json + "}";
}

std::string GitDescribe() {
  std::FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {};
  const bool got = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
  const int status = pclose(pipe);
  const std::string described = got ? Trim(buffer) : "";
  return status == 0 && !described.empty() ? described : "unknown";
}

}  // namespace

std::string HostJson() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + JsonEscape(CpuModel()) +
         "\", \"caches\": " + CachesJson() + ", \"compiler\": \"" +
         JsonEscape(LEDGER_COMPILER) + "\", \"build_type\": \"" +
         JsonEscape(LEDGER_BUILD_TYPE) + "\", \"git_describe\": \"" +
         JsonEscape(GitDescribe()) + "\"}";
}

}  // namespace ledger
