#include "daemon/load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "daemon/client.h"

namespace dbpc {
namespace {

using Clock = std::chrono::steady_clock;

// 20 s I/O deadlines: above any result_wait_ms a daemon parks RESULT WAIT
// for (dbpcd defaults to 8 s), so a slow answer is a slow answer, not a
// client timeout counted as a drop.
constexpr SockBuffer::Limits kSessionLimits{20000, 20000, 1 << 16};

// How long a thread whose sessions were all refused waits before retrying;
// a spinning retry would starve the very workers it is waiting on.
constexpr std::chrono::milliseconds kBackpressureBackoff(2);

const char* const kMalformedPayload = "THIS IS NOT A CPL PROGRAM AT ALL\n";

struct Session {
  std::unique_ptr<DaemonClient> client;
  uint64_t sequence = 0;  // drives this session's deterministic payload mix
  bool completed_any = false;
  bool pending = false;
  JobId pending_id = 0;
  Clock::time_point due;  // latency is measured from here
};

/// Shared by every client thread of one run.
struct Schedule {
  const LoadOptions& options;
  const std::vector<std::string>& payloads;
  Clock::time_point start;
  Clock::time_point deadline;
  std::atomic<uint64_t> tickets{0};
};

ConversionRequest NextRequest(const Schedule& schedule, Session* session) {
  const LoadOptions& options = schedule.options;
  uint64_t sequence = ++session->sequence;
  ConversionRequest request;
  bool malformed = sequence % 100 < static_cast<uint64_t>(options.malformed_pct);
  request.source = malformed
                       ? kMalformedPayload
                       : schedule.payloads[sequence % schedule.payloads.size()];
  request.deadline_ms = options.deadline_ms;
  request.trace =
      (sequence + 50) % 100 < static_cast<uint64_t>(options.trace_pct);
  return request;
}

/// One client thread: sessions [first, first + count). Each round submits
/// on every idle live session, then collects every outstanding result, so a
/// thread with one session is the plain closed (or paced) loop.
void RunSessions(Schedule* schedule, int first, int count,
                 LoadReport* tally) {
  const LoadOptions& options = schedule->options;
  std::vector<Session> sessions(static_cast<size_t>(count));
  int live = 0;
  for (int i = 0; i < count; ++i) {
    sessions[i].sequence = static_cast<uint64_t>(first + i) * 7919;
    Result<std::unique_ptr<DaemonClient>> client =
        DaemonClient::Connect(options.host, options.port, kSessionLimits);
    if (!client.ok()) {
      ++tally->connect_errors;
      continue;
    }
    sessions[i].client = std::move(*client);
    ++live;
  }
  auto drop = [&](Session& session) {
    ++tally->dropped;
    session.client.reset();
    session.pending = false;
    --live;
  };

  while (live > 0 && Clock::now() < schedule->deadline) {
    bool any_submitted = false;
    for (Session& session : sessions) {
      if (session.client == nullptr) continue;
      Clock::time_point due = Clock::now();
      if (options.rps > 0) {
        // Global pacing: ticket k is due at start + k/rps.
        uint64_t ticket = schedule->tickets.fetch_add(1);
        Clock::time_point scheduled =
            schedule->start +
            std::chrono::microseconds(ticket * 1000000ull /
                                      static_cast<uint64_t>(options.rps));
        if (scheduled >= schedule->deadline) break;
        std::this_thread::sleep_until(scheduled);
        due = options.open_loop ? scheduled : Clock::now();
      }
      if (Clock::now() >= schedule->deadline) break;
      session.due = due;
      ++tally->submitted;
      Result<JobId> id =
          session.client->Submit(NextRequest(*schedule, &session));
      if (id.ok()) {
        session.pending = true;
        session.pending_id = *id;
        any_submitted = true;
      } else if (id.status().code() == StatusCode::kUnavailable &&
                 session.client->connected()) {
        ++tally->backpressure;
      } else {
        drop(session);
      }
    }
    for (Session& session : sessions) {
      if (!session.pending) continue;
      session.pending = false;
      Result<ConversionResponse> response =
          session.client->Fetch(session.pending_id, /*wait=*/true);
      if (!response.ok()) {
        drop(session);
        continue;
      }
      tally->latencies_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - session.due)
              .count()));
      session.completed_any = true;
      if (response->state == JobState::kFailed) {
        ++tally->failed;
      } else if (response->accepted) {
        ++tally->accepted;
      } else {
        ++tally->refused;
      }
    }
    if (!any_submitted) std::this_thread::sleep_for(kBackpressureBackoff);
  }
  for (Session& session : sessions) {
    if (session.client != nullptr) session.client->Quit();
    if (!session.completed_any) ++tally->idle_sessions;
  }
}

}  // namespace

double LoadReport::completed_per_sec() const {
  return elapsed_s > 0 ? static_cast<double>(completed()) / elapsed_s : 0.0;
}

uint64_t LoadReport::PercentileUs(double p) const {
  if (latencies_us.empty()) return 0;
  size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(latencies_us.size() - 1));
  return latencies_us[index];
}

const std::vector<std::string>& DefaultLoadPayloads() {
  static const std::vector<std::string> kPayloads = {
      R"(PROGRAM SENIORS.
  FOR EACH E IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) DO
    GET EMP-NAME OF E INTO N.
    DISPLAY N.
  END-FOR.
END PROGRAM.
)",
      R"(PROGRAM SALES-RPT.
  FIND ANY DIV (DIV-NAME = 'MACHINERY').
  FIND FIRST EMP WITHIN DIV-EMP USING (DEPT-NAME = 'SALES').
  WHILE DB-STATUS = '0000' DO
    GET EMP-NAME INTO N.
    WRITE REPORT FROM N.
    FIND NEXT EMP WITHIN DIV-EMP USING (DEPT-NAME = 'SALES').
  END-WHILE.
END PROGRAM.
)"};
  return kPayloads;
}

LoadReport RunLoad(const LoadOptions& options) {
  Clock::time_point start = Clock::now();
  Schedule schedule{
      options,
      options.payloads.empty() ? DefaultLoadPayloads() : options.payloads,
      start, start + std::chrono::milliseconds(options.duration_ms)};
  int threads = std::min(options.connections, kLoadMaxThreads);
  std::vector<LoadReport> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0, first = 0; t < threads; ++t) {
    // Spread the remainder one session at a time over the first threads.
    int count = options.connections / threads +
                (t < options.connections % threads ? 1 : 0);
    workers.emplace_back(RunSessions, &schedule, first, count, &tallies[t]);
    first += count;
  }
  for (std::thread& worker : workers) worker.join();

  LoadReport report;
  report.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const LoadReport& tally : tallies) {
    report.submitted += tally.submitted;
    report.accepted += tally.accepted;
    report.refused += tally.refused;
    report.failed += tally.failed;
    report.backpressure += tally.backpressure;
    report.dropped += tally.dropped;
    report.connect_errors += tally.connect_errors;
    report.idle_sessions += tally.idle_sessions;
    report.latencies_us.insert(report.latencies_us.end(),
                               tally.latencies_us.begin(),
                               tally.latencies_us.end());
  }
  std::sort(report.latencies_us.begin(), report.latencies_us.end());
  return report;
}

}  // namespace dbpc
