// crowdbench — the crowdex benchmark.
//
//   crowdbench --workload <query_mix|niche_sharded|ingest_live> --seed <n>
//              --seconds <s> --trace <0|1> --work-dir <dir>
//              [--source-digest <hex>] [--git-sha <sha>]
//
// Prints a provenance header, progress lines (all starting with '#'), and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (and the spans land in <work-dir>). Exits 1
// when any correctness check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "common/cpu.h"
#include "index/kernels/kernels.h"
#include "inputs.h"
#include "workloads.h"

namespace crowdbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "crowdbench: %s\nusage: crowdbench --workload "
               "<query_mix|niche_sharded|ingest_live> --seed <n> --seconds "
               "<s> --trace <0|1> --work-dir <dir> [--source-digest <hex>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Thread layout of each workload: client threads plus pool threads, never
/// more than nproc while serving.
const char* ThreadLayout(Workload w) {
  switch (w) {
    case Workload::kQueryMix:
      return "2 closed-loop clients, no pool";
    case Workload::kNicheSharded:
      return "1 closed-loop client, shards scattered on it";
    case Workload::kIngestLive:
      return "1 writer + 2-thread compaction pool + 1 open-loop reader";
  }
  return "";
}

void PrintProvenance(const Options& opt, const std::string& digest,
                     const std::string& git_sha) {
  const double scale = opt.workload == Workload::kIngestLive
                           ? inputs::kIngestScale
                           : inputs::kServingScale;
  std::printf(
      "# provenance {\"benchmark\": \"crowdbench\", \"git_sha\": %s, "
      "\"source_digest\": %s, "
      "\"compiler\": %s, \"flags\": %s, \"build_type\": %s, "
      "\"cpu_features\": %s, \"kernel_tier\": %s, \"nproc\": %d, "
      "\"workload\": %s, \"scale\": %.2f, \"seed\": %llu, "
      "\"seconds\": %.3f, \"trace\": %s, \"setup_threads\": %d, "
      "\"serving_threads\": %s, \"flush_policy\": %s}\n",
      JsonString(git_sha).c_str(), JsonString(digest).c_str(),
      JsonString(CROWDBENCH_COMPILER).c_str(),
      JsonString(CROWDBENCH_FLAGS).c_str(),
      JsonString(CROWDBENCH_BUILD_TYPE).c_str(),
      JsonString(crowdex::common::CpuFeatureString()).c_str(),
      JsonString(crowdex::common::KernelTierName(
                     crowdex::index::kernels::ActiveTier()))
          .c_str(),
      opt.nproc, JsonString(WorkloadName(opt.workload)).c_str(), scale,
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? "true" : "false", opt.nproc,
      JsonString(ThreadLayout(opt.workload)).c_str(),
      JsonString(opt.workload == Workload::kIngestLive
                     ? "LogBatch segment per batch: write + atomic rename, "
                       "no fsync"
                     : "none (read-only)")
          .c_str());
}

void PrintResult(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace crowdbench

int main(int argc, char** argv) {
  using namespace crowdbench;
  Options opt;
  std::string digest = "unknown";
  std::string git_sha = "unavailable";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &opt.workload)) {
        return Usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      opt.work_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace and --work-dir are "
                 "required");
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return Usage(("cannot create " + opt.work_dir).c_str());
  opt.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  PrintProvenance(opt, digest, git_sha);
  std::fflush(stdout);
  RunResult result;
  switch (opt.workload) {
    case Workload::kQueryMix:
      result = RunQueryMix(opt);
      break;
    case Workload::kNicheSharded:
      result = RunNicheSharded(opt);
      break;
    case Workload::kIngestLive:
      result = RunIngestLive(opt);
      break;
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  PrintResult(result);
  return result.correct ? 0 : 1;
}
