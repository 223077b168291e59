// The closed-loop load generator: each client sends its next request only
// after the previous one completes. Requests that start during the warm-up
// are served but not measured.
#ifndef CROWDBENCH_LOOP_H_
#define CROWDBENCH_LOOP_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"

namespace crowdbench {

struct LoopResult {
  /// Latency of every measured request, in ms.
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Length of the measured window (warm-up excluded), in seconds.
  double window_s = 0.0;
  /// p99 latency of each window folded in by `Append`, in ms.
  std::vector<double> slice_p99_ms;

  /// Folds in another window's requests (the windows add up).
  void Append(const LoopResult& other) {
    slice_p99_ms.push_back(Percentile(other.latency_ms, 0.99));
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    window_s += other.window_s;
  }
  double Qps() const {
    return window_s > 0
               ? static_cast<double>(attempted - failed) / window_s
               : 0.0;
  }
};

/// Runs `clients` threads for `warmup_s + seconds`. Client `c` serves its
/// requests with sequence numbers c, c + clients, c + 2·clients, ... by
/// calling `serve(seq, &latency_ms)`, which returns false for a failed
/// request.
template <typename Serve>
LoopResult RunClosedLoop(int clients, double warmup_s, double seconds,
                         const Serve& serve) {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  struct PerClient {
    std::vector<double> latency_ms;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::vector<PerClient> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(per_client.size());
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& mine = per_client[static_cast<size_t>(c)];
      mine.latency_ms.reserve(1 << 16);
      for (uint64_t seq = static_cast<uint64_t>(c);
           !stop.load(std::memory_order_relaxed);
           seq += static_cast<uint64_t>(clients)) {
        const bool measured = measuring.load(std::memory_order_relaxed);
        double ms = 0.0;
        const bool ok = serve(seq, &ms);
        if (!measured) continue;
        ++mine.attempted;
        if (!ok) {
          ++mine.failed;
          continue;
        }
        mine.latency_ms.push_back(ms);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const Clock::time_point start = Clock::now();
  measuring.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  const double window_s = SecondsSince(start);
  for (std::thread& t : threads) t.join();

  LoopResult out;
  out.window_s = window_s;
  for (PerClient& pc : per_client) {
    out.attempted += pc.attempted;
    out.failed += pc.failed;
    out.latency_ms.insert(out.latency_ms.end(), pc.latency_ms.begin(),
                          pc.latency_ms.end());
  }
  return out;
}

}  // namespace crowdbench

#endif  // CROWDBENCH_LOOP_H_
