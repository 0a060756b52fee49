#ifndef DBPC_API_DBPC_H_
#define DBPC_API_DBPC_H_

/// The supported public surface of the dbpc library.
///
/// External callers (tools, examples, embedders) include this single
/// header — and link `dbpc_api` — instead of reaching into the internal
/// module headers, whose layout may change between releases. Everything
/// re-exported here is covered by the compatibility expectations described
/// in README.md; anything included directly from `src/<module>/` is
/// internal.
///
/// Entry points by layer:
///
///   Infrastructure   Status, StatusCode, Result<T>, MetricsRegistry,
///                    Counter, Histogram, SpanCollector, SpanContext
///                    (structured span tracing, Chrome trace_event export)
///   Schema & data    Schema, ParseDdl, Database, LoadDatabaseText,
///                    DumpDatabaseText
///   Programs         Program, ParseProgram, ExecuteProgram (interpreter)
///   Restructuring    Transformation, RestructuringPlan, ParsePlan
///   Pipeline         ProgramAnalyzer, ProgramConverter, OptimizeProgram,
///                    StatisticsCatalog (cost-based plan selection),
///                    GenerateCplSource, ConversionSupervisor,
///                    SupervisorOptions, AnalystMode, Provenance,
///                    ProvenanceListing, UnstampedCount (statement-level
///                    conversion provenance)
///   Requests         ConversionRequest, ConversionResponse, JobId,
///                    JobState, WireErrorName/ParseWireError (api/types.h:
///                    the one request model shared by the in-process
///                    service and the dbpcd wire protocol)
///   Batch service    ConversionService, ServiceOptions (parallel
///                    whole-system conversion with metrics over
///                    ConversionRequests).
///   Network daemon   ConversionDaemon, DaemonOptions, DaemonClient,
///                    RunLoad/LoadOptions/LoadReport (the load driver)
///                    (daemon/daemon.h, daemon/client.h, daemon/load.h;
///                    wire protocol in DAEMON.md)
///   Verification     CheckEquivalence, AdviseProgram
///   Cross-model      LowerToNavigational, GenerateSequel, hierarchical
///                    and relational backends, emulation bridge
///   Workloads        GenerateCompanyCorpus (synthetic application systems)
///   Fuzzing          GenerateFuzzCase, RunFuzzCase, RunFuzz, ShrinkFuzzCase,
///                    ReplayRepro (differential trace-equivalence harness)

#include "api/types.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/span.h"
#include "common/status.h"

#include "engine/database.h"
#include "engine/textio.h"
#include "schema/ddl_parser.h"
#include "schema/schema.h"

#include "lang/ast.h"
#include "lang/interpreter.h"
#include "lang/parser.h"

#include "restructure/plan_parser.h"
#include "restructure/transformation.h"

#include "analyze/advisor.h"
#include "analyze/analyzer.h"
#include "convert/converter.h"
#include "convert/provenance.h"
#include "generate/generator.h"
#include "optimize/optimizer.h"
#include "optimize/stats.h"
#include "supervisor/supervisor.h"

#include "service/service.h"

#include "common/log.h"

#include "daemon/admin.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/load.h"
#include "daemon/protocol.h"

#include "equivalence/checker.h"

#include "bridge/bridge.h"
#include "emulate/emulator.h"
#include "hierarchical/hierarchical.h"
#include "relational/relational.h"

#include "corpus/corpus.h"

#include "fuzz/fuzz.h"

#endif  // DBPC_API_DBPC_H_
