#ifndef DBPC_ENGINE_FIND_QUERY_H_
#define DBPC_ENGINE_FIND_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/lexer.h"
#include "engine/database.h"
#include "engine/predicate.h"

namespace dbpc {

/// One element of a FIND access path: a set to traverse (owner -> ordered
/// members), a record type to confirm/filter, or a value join to an
/// unassociated record type (Su's second access pattern, "ACCESS A via B
/// through (Ai, Bj)"). Until a path is resolved against a schema the kind
/// of a plain name is unknown, since set and record names share one
/// identifier space in the DML text.
struct PathStep {
  enum class Kind { kUnresolved, kSet, kRecord, kJoin };
  Kind kind = Kind::kUnresolved;
  std::string name;
  /// Qualification in parentheses after a record name / join.
  std::optional<Predicate> qualification;
  /// kJoin only: JOIN <name> THROUGH (<join_target_field>,
  /// <join_source_field>) — target field on the joined type `name`,
  /// source field on the records flowing in.
  std::string join_target_field;
  std::string join_source_field;

  /// Factory for a plain (set/record/unresolved) step.
  static PathStep Make(Kind kind, std::string name,
                       std::optional<Predicate> qualification = {}) {
    PathStep step;
    step.kind = kind;
    step.name = std::move(name);
    step.qualification = std::move(qualification);
    return step;
  }

  bool operator==(const PathStep& other) const;

  std::string ToString() const;
};

/// The Maryland FIND statement of paper section 4.2:
///
///   FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'),
///        DIV-EMP, EMP(DEPT-NAME = 'SALES'))
///
/// The access path begins at SYSTEM (through a system-owned set) or at a
/// previously retrieved collection held in a host variable, and is extended
/// by set/record name pairs; record names may carry boolean qualifications.
struct FindQuery {
  std::string target_type;
  /// "SYSTEM" or the (upper-cased) name of a host collection variable.
  std::string start = "SYSTEM";
  std::vector<PathStep> steps;

  bool starts_at_system() const { return start == "SYSTEM"; }

  bool operator==(const FindQuery&) const = default;

  /// Renders the canonical DML text (always with FIND(...) syntax).
  std::string ToString() const;
};

/// A retrieval expression: a FIND optionally wrapped in SORT ... ON (...),
/// the form the paper uses to preserve order dependence across conversion:
///   SORT(FIND(...)) ON (EMP-NAME)
struct Retrieval {
  FindQuery query;
  std::vector<std::string> sort_on;

  bool operator==(const Retrieval&) const = default;

  std::string ToString() const;
};

/// Assigns set/record kinds to every step and checks the path is
/// well-formed against `schema`:
///  - names resolve to exactly one of set / record type;
///  - a SYSTEM start opens with a system-owned set;
///  - each set's owner type matches the preceding record context;
///  - each record step matches the member type of the preceding set;
///  - the final record type equals `target_type`.
Status ResolveFindQuery(const Schema& schema, FindQuery* query);

/// Resolves host collection variables (prior FIND results) by name.
using CollectionEnv =
    std::function<Result<std::vector<RecordId>>(const std::string&)>;

/// Returns an environment that fails on every lookup.
CollectionEnv EmptyCollectionEnv();

/// Evaluates a resolved FIND against a database. Results preserve set
/// ordering (members are visited in occurrence order), which is what makes
/// order-dependent programs sensitive to ChangeSetOrder restructurings.
Result<std::vector<RecordId>> EvaluateFind(const Database& db,
                                           const FindQuery& query,
                                           const HostEnv& host_env,
                                           const CollectionEnv& collections);

/// Stable-sorts `ids` ascending by the given fields (virtual fields are
/// resolved). Implements the SORT ... ON (...) wrapper.
Result<std::vector<RecordId>> SortRecords(const Database& db,
                                          std::vector<RecordId> ids,
                                          const std::vector<std::string>& on);

/// Evaluates a full retrieval (FIND plus optional SORT).
Result<std::vector<RecordId>> EvaluateRetrieval(const Database& db,
                                                const Retrieval& retrieval,
                                                const HostEnv& host_env,
                                                const CollectionEnv& collections);

/// Parses a record qualification, e.g. "AGE > 30 AND DIV-NAME = :D".
/// Exposed for reuse by the CPL parser.
Result<Predicate> ParsePredicate(TokenCursor* cur);

/// Consumes one of = <> < <= > >=; anything else is a parse error reading
/// `expected`. Shared by the FIND, CPL and SQL condition parsers.
Result<CompareOp> ParseCompareOp(TokenCursor* cur, const char* expected);

/// Parses "FIND(TARGET: START, step, ...)" starting at the FIND keyword.
Result<FindQuery> ParseFindQuery(TokenCursor* cur);

/// Parses a retrieval: FIND(...) or SORT(FIND(...)) ON (fields).
Result<Retrieval> ParseRetrieval(TokenCursor* cur);

/// Convenience wrappers over whole strings.
Result<FindQuery> ParseFindQuery(const std::string& text);
Result<Retrieval> ParseRetrieval(const std::string& text);

}  // namespace dbpc

#endif  // DBPC_ENGINE_FIND_QUERY_H_
