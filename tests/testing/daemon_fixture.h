#ifndef DBPC_TESTS_TESTING_DAEMON_FIXTURE_H_
#define DBPC_TESTS_TESTING_DAEMON_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "testing/fixtures.h"

namespace dbpc::testing {

/// The section 1.1 SENIORS program, the daemon tests' usual payload.
inline const char* const kSeniorsCpl = R"(PROGRAM SENIORS.
  FOR EACH E IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) DO
    GET EMP-NAME OF E INTO N.
    DISPLAY N.
  END-FOR.
END PROGRAM.
)";

/// Ephemeral port, 2 s io deadlines, two workers and an approving analyst.
inline DaemonOptions TestOptions() {
  DaemonOptions options;
  options.port = 0;
  options.read_timeout_ms = 2000;
  options.write_timeout_ms = 2000;
  options.result_wait_ms = 5000;
  options.drain_grace_ms = 10000;
  options.service.jobs = 2;
  options.service.supervisor.analyst = ApproveAllAnalyst();
  return options;
}

/// A daemon on the company schema and the Figure 4.4 plan, kept alive
/// together (the plan's transformations must outlive the daemon).
struct DaemonFixture {
  RestructuringPlan plan = Figure44Plan();
  std::unique_ptr<ConversionDaemon> daemon;

  explicit DaemonFixture(DaemonOptions options) {
    Schema schema = MakeDatabase(CompanyDdl()).schema();
    Result<std::unique_ptr<ConversionDaemon>> started =
        ConversionDaemon::Start(schema, plan.View(), std::move(options));
    EXPECT_TRUE(started.ok()) << started.status();
    daemon = std::move(started).value();
  }

  std::unique_ptr<DaemonClient> Connect() {
    Result<std::unique_ptr<DaemonClient>> client =
        DaemonClient::Connect("127.0.0.1", daemon->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }
};

}  // namespace dbpc::testing

#endif  // DBPC_TESTS_TESTING_DAEMON_FIXTURE_H_
