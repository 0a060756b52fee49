#ifndef DBPC_ENGINE_PREDICATE_H_
#define DBPC_ENGINE_PREDICATE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace dbpc {

/// Comparison operators usable in record qualifications.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIsNull,
  kIsNotNull,
};

const char* CompareOpSymbol(CompareOp op);

/// Right-hand side of a comparison: a literal or a reference to a host
/// program variable (":NAME" in DML text). Host variables are resolved at
/// evaluation time through a caller-supplied environment.
struct Operand {
  enum class Kind { kLiteral, kHostVar };
  Kind kind = Kind::kLiteral;
  Value literal;
  std::string host_var;

  static Operand Literal(Value v) {
    Operand o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }
  static Operand HostVar(std::string name) {
    Operand o;
    o.kind = Kind::kHostVar;
    o.host_var = std::move(name);
    return o;
  }

  bool operator==(const Operand&) const = default;

  std::string ToString() const;
};

/// Resolves host variable names to values during predicate evaluation.
using HostEnv = std::function<Result<Value>(const std::string&)>;

/// Returns an environment that fails on every lookup; used for predicates
/// known to be host-variable-free.
HostEnv EmptyHostEnv();

/// Boolean qualification over one record's fields:
///   expr := comparison | expr AND expr | expr OR expr | NOT expr
/// Comparisons with null operands are false (except IS NULL / IS NOT NULL),
/// the conventional three-valued-collapsed semantics.
class Predicate {
 public:
  enum class Kind { kCompare, kAnd, kOr, kNot };

  /// An empty comparison placeholder; assign a real predicate before use.
  Predicate() = default;

  /// Leaf comparison `field <op> rhs`.
  static Predicate Compare(std::string field, CompareOp op, Operand rhs);
  static Predicate And(Predicate lhs, Predicate rhs);
  static Predicate Or(Predicate lhs, Predicate rhs);
  static Predicate Not(Predicate inner);

  Predicate(const Predicate& other);
  Predicate& operator=(const Predicate& other);
  Predicate(Predicate&&) = default;
  Predicate& operator=(Predicate&&) = default;

  Kind kind() const { return kind_; }
  const std::string& field() const { return field_; }
  CompareOp op() const { return op_; }
  const Operand& operand() const { return operand_; }
  /// Left child for kAnd/kOr, the single child for kNot.
  const Predicate* lhs_child() const { return lhs_.get(); }
  const Predicate* rhs_child() const { return rhs_.get(); }

  /// Evaluates against a record whose field values are produced by
  /// `get_field` (which resolves virtual fields etc.).
  Result<bool> Evaluate(
      const std::function<Result<Value>(const std::string&)>& get_field,
      const HostEnv& host_env) const;

  /// Renames every reference to `old_field` to `new_field` (conversion
  /// rule support). Returns the number of references rewritten.
  int RenameField(const std::string& old_field, const std::string& new_field);

  /// Collects the field names referenced, in first-occurrence order.
  void CollectFields(std::vector<std::string>* out) const;

  /// Collects host variable names referenced.
  void CollectHostVars(std::vector<std::string>* out) const;

  /// DML-dialect text, e.g. "AGE > 30 AND DIV-NAME = :D".
  std::string ToString() const;

  bool operator==(const Predicate& other) const;

 private:
  Kind kind_ = Kind::kCompare;
  std::string field_;
  CompareOp op_ = CompareOp::kEq;
  Operand operand_;
  std::unique_ptr<Predicate> lhs_;
  std::unique_ptr<Predicate> rhs_;
};

/// Compares two values with query semantics: numeric comparison when both
/// sides are (coercible to) numbers, string comparison otherwise. Returns
/// nullopt when either side is null.
std::optional<int> QueryCompare(const Value& lhs, const Value& rhs);

/// Whether a QueryCompare result satisfies an ordering operator (false for
/// the null tests, which never compare).
inline bool CompareHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

/// The numeric interpretation a value gets inside QueryCompare: native
/// numbers as-is, strings only when std::from_chars consumes them fully.
std::optional<double> QueryNumeric(const Value& v);

/// Canonical key text for a number under QueryCompare equality: equal
/// doubles produce equal keys and distinct doubles distinct keys ("%.17g"
/// round-trips; -0 collapses onto +0). NaN is the caller's problem — it
/// compares equal to every number, so no key can represent it.
std::string QueryNumericKey(double d);

/// Collects the top-level AND conjuncts of `pred` that are plain equality
/// comparisons (`field = literal` / `field = :hostvar`), left to right.
/// Subtrees under OR/NOT contribute nothing: only conjuncts that must hold
/// for the whole predicate to hold are returned, which is what makes them
/// usable as index probes.
void CollectEqualityConjuncts(const Predicate& pred,
                              std::vector<const Predicate*>* out);

}  // namespace dbpc

#endif  // DBPC_ENGINE_PREDICATE_H_
