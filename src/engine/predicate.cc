#include "engine/predicate.h"

#include <charconv>
#include <cstdio>

namespace dbpc {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIsNull:
      return "IS NULL";
    case CompareOp::kIsNotNull:
      return "IS NOT NULL";
  }
  return "?";
}

std::string Operand::ToString() const {
  if (kind == Kind::kHostVar) return ":" + host_var;
  return literal.ToLiteral();
}

HostEnv EmptyHostEnv() {
  return [](const std::string& name) -> Result<Value> {
    return Status::NotFound("host variable " + name +
                            " referenced in host-variable-free context");
  };
}

Predicate Predicate::Compare(std::string field, CompareOp op, Operand rhs) {
  Predicate p;
  p.kind_ = Kind::kCompare;
  p.field_ = std::move(field);
  p.op_ = op;
  p.operand_ = std::move(rhs);
  return p;
}

Predicate Predicate::And(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.lhs_ = std::make_unique<Predicate>(std::move(lhs));
  p.rhs_ = std::make_unique<Predicate>(std::move(rhs));
  return p;
}

Predicate Predicate::Or(Predicate lhs, Predicate rhs) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.lhs_ = std::make_unique<Predicate>(std::move(lhs));
  p.rhs_ = std::make_unique<Predicate>(std::move(rhs));
  return p;
}

Predicate Predicate::Not(Predicate inner) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.lhs_ = std::make_unique<Predicate>(std::move(inner));
  return p;
}

Predicate::Predicate(const Predicate& other)
    : kind_(other.kind_),
      field_(other.field_),
      op_(other.op_),
      operand_(other.operand_) {
  if (other.lhs_) lhs_ = std::make_unique<Predicate>(*other.lhs_);
  if (other.rhs_) rhs_ = std::make_unique<Predicate>(*other.rhs_);
}

Predicate& Predicate::operator=(const Predicate& other) {
  if (this == &other) return *this;
  kind_ = other.kind_;
  field_ = other.field_;
  op_ = other.op_;
  operand_ = other.operand_;
  lhs_ = other.lhs_ ? std::make_unique<Predicate>(*other.lhs_) : nullptr;
  rhs_ = other.rhs_ ? std::make_unique<Predicate>(*other.rhs_) : nullptr;
  return *this;
}

std::optional<double> QueryNumeric(const Value& v) {
  if (v.is_int()) return static_cast<double>(v.as_int());
  if (v.is_double()) return v.as_double();
  if (!v.is_string()) return std::nullopt;
  const std::string& s = v.as_string();
  double out = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec == std::errc() && ptr == s.data() + s.size()) return out;
  return std::nullopt;
}

std::string QueryNumericKey(double d) {
  if (d == 0.0) d = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::optional<int> QueryCompare(const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return std::nullopt;
  // Numeric comparison applies when at least one side is a native number
  // and the other is a number or numeric string; otherwise lexicographic.
  if (lhs.is_int() || lhs.is_double() || rhs.is_int() || rhs.is_double()) {
    std::optional<double> ln = QueryNumeric(lhs);
    std::optional<double> rn = QueryNumeric(rhs);
    if (ln.has_value() && rn.has_value()) {
      return *ln < *rn ? -1 : (*ln > *rn ? 1 : 0);
    }
    // Mixed incomparable types: fall back to display-text comparison so the
    // result is at least deterministic.
  }
  std::string a = lhs.ToDisplay();
  std::string b = rhs.ToDisplay();
  return a < b ? -1 : (a > b ? 1 : 0);
}

Result<bool> Predicate::Evaluate(
    const std::function<Result<Value>(const std::string&)>& get_field,
    const HostEnv& host_env) const {
  switch (kind_) {
    case Kind::kCompare: {
      DBPC_ASSIGN_OR_RETURN(Value lhs, get_field(field_));
      if (op_ == CompareOp::kIsNull) return lhs.is_null();
      if (op_ == CompareOp::kIsNotNull) return !lhs.is_null();
      Value rhs;
      if (operand_.kind == Operand::Kind::kLiteral) {
        rhs = operand_.literal;
      } else {
        DBPC_ASSIGN_OR_RETURN(rhs, host_env(operand_.host_var));
      }
      std::optional<int> cmp = QueryCompare(lhs, rhs);
      if (!cmp.has_value()) return false;
      return CompareHolds(op_, *cmp);
    }
    case Kind::kAnd: {
      DBPC_ASSIGN_OR_RETURN(bool l, lhs_->Evaluate(get_field, host_env));
      if (!l) return false;
      return rhs_->Evaluate(get_field, host_env);
    }
    case Kind::kOr: {
      DBPC_ASSIGN_OR_RETURN(bool l, lhs_->Evaluate(get_field, host_env));
      if (l) return true;
      return rhs_->Evaluate(get_field, host_env);
    }
    case Kind::kNot: {
      DBPC_ASSIGN_OR_RETURN(bool l, lhs_->Evaluate(get_field, host_env));
      return !l;
    }
  }
  return Status::Internal("corrupt predicate");
}

void CollectEqualityConjuncts(const Predicate& pred,
                              std::vector<const Predicate*>* out) {
  switch (pred.kind()) {
    case Predicate::Kind::kCompare:
      if (pred.op() == CompareOp::kEq) out->push_back(&pred);
      return;
    case Predicate::Kind::kAnd:
      CollectEqualityConjuncts(*pred.lhs_child(), out);
      CollectEqualityConjuncts(*pred.rhs_child(), out);
      return;
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      return;
  }
}

int Predicate::RenameField(const std::string& old_field,
                           const std::string& new_field) {
  int count = 0;
  if (kind_ == Kind::kCompare) {
    if (field_ == old_field) {
      field_ = new_field;
      ++count;
    }
    return count;
  }
  if (lhs_) count += lhs_->RenameField(old_field, new_field);
  if (rhs_) count += rhs_->RenameField(old_field, new_field);
  return count;
}

void Predicate::CollectFields(std::vector<std::string>* out) const {
  if (kind_ == Kind::kCompare) {
    bool seen = false;
    for (const std::string& f : *out) {
      if (f == field_) {
        seen = true;
        break;
      }
    }
    if (!seen) out->push_back(field_);
    return;
  }
  if (lhs_) lhs_->CollectFields(out);
  if (rhs_) rhs_->CollectFields(out);
}

void Predicate::CollectHostVars(std::vector<std::string>* out) const {
  if (kind_ == Kind::kCompare) {
    if (operand_.kind == Operand::Kind::kHostVar) {
      for (const std::string& v : *out) {
        if (v == operand_.host_var) return;
      }
      out->push_back(operand_.host_var);
    }
    return;
  }
  if (lhs_) lhs_->CollectHostVars(out);
  if (rhs_) rhs_->CollectHostVars(out);
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kCompare:
      if (op_ == CompareOp::kIsNull || op_ == CompareOp::kIsNotNull) {
        return field_ + " " + CompareOpSymbol(op_);
      }
      return field_ + " " + CompareOpSymbol(op_) + " " + operand_.ToString();
    case Kind::kAnd:
      return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + lhs_->ToString() + ")";
  }
  return "?";
}

bool Predicate::operator==(const Predicate& other) const {
  if (kind_ != other.kind_) return false;
  if (kind_ == Kind::kCompare) {
    return field_ == other.field_ && op_ == other.op_ &&
           operand_ == other.operand_;
  }
  auto child_eq = [](const Predicate* a, const Predicate* b) {
    if ((a == nullptr) != (b == nullptr)) return false;
    return a == nullptr || *a == *b;
  };
  return child_eq(lhs_.get(), other.lhs_.get()) &&
         child_eq(rhs_.get(), other.rhs_.get());
}

}  // namespace dbpc
