#include "relational/relational.h"

#include <algorithm>

#include "common/lexer.h"
#include "common/string_util.h"
#include "engine/find_query.h"
#include "restructure/data_copy.h"

namespace dbpc {

std::string WhereExpr::ToString() const {
  switch (kind) {
    case Kind::kCompare:
      if (op == CompareOp::kIsNull || op == CompareOp::kIsNotNull) {
        return field + " " + CompareOpSymbol(op);
      }
      return field + " " + CompareOpSymbol(op) + " " + rhs.ToString();
    case Kind::kAnd:
      return "(" + children[0].ToString() + " AND " + children[1].ToString() +
             ")";
    case Kind::kOr:
      return "(" + children[0].ToString() + " OR " + children[1].ToString() +
             ")";
    case Kind::kNot:
      return "(NOT " + children[0].ToString() + ")";
    case Kind::kIn:
      return field + " IN (" + subquery->ToString() + ")";
  }
  return "?";
}

std::string SelectQuery::ToString() const {
  std::string out = "SELECT ";
  out += projection.empty() ? "*" : Join(projection, ", ");
  out += " FROM " + from;
  if (where.has_value()) out += " WHERE " + where->ToString();
  if (!order_by.empty()) out += " ORDER BY " + Join(order_by, ", ");
  return out;
}

namespace {

Result<SelectQuery> ParseSelect(TokenCursor* cur);

Result<Operand> ParseSqlOperand(TokenCursor* cur) {
  const Token& t = cur->Peek();
  switch (t.kind) {
    case TokenKind::kInteger:
      cur->Next();
      return Operand::Literal(Value::Int(t.int_value));
    case TokenKind::kFloat:
      cur->Next();
      return Operand::Literal(Value::Double(t.float_value));
    case TokenKind::kString:
      cur->Next();
      return Operand::Literal(Value::String(t.text));
    case TokenKind::kIdentifier:
      if (t.text == "NULL") {
        cur->Next();
        return Operand::Literal(Value::Null());
      }
      break;
    case TokenKind::kPunct:
      if (t.text == ":") {
        cur->Next();
        DBPC_ASSIGN_OR_RETURN(std::string name,
                              cur->TakeIdentifier("host variable"));
        return Operand::HostVar(std::move(name));
      }
      break;
    default:
      break;
  }
  return cur->ErrorHere("expected literal or :host-variable");
}

Result<WhereExpr> ParseWhere(TokenCursor* cur);

Result<WhereExpr> ParseWhereComparison(TokenCursor* cur) {
  WhereExpr e;
  DBPC_ASSIGN_OR_RETURN(e.field, cur->TakeIdentifier("column name"));
  if (cur->ConsumeIdent("IN")) {
    e.kind = WhereExpr::Kind::kIn;
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
    DBPC_ASSIGN_OR_RETURN(SelectQuery sub, ParseSelect(cur));
    e.subquery = std::make_unique<SelectQuery>(std::move(sub));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
    return e;
  }
  if (cur->ConsumeIdent("IS")) {
    bool negated = cur->ConsumeIdent("NOT");
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("NULL"));
    e.kind = WhereExpr::Kind::kCompare;
    e.op = negated ? CompareOp::kIsNotNull : CompareOp::kIsNull;
    return e;
  }
  e.kind = WhereExpr::Kind::kCompare;
  DBPC_ASSIGN_OR_RETURN(
      e.op, ParseCompareOp(cur, "expected comparison operator or IN"));
  DBPC_ASSIGN_OR_RETURN(e.rhs, ParseSqlOperand(cur));
  return e;
}

Result<WhereExpr> ParseWhereUnary(TokenCursor* cur) {
  if (cur->ConsumeIdent("NOT")) {
    DBPC_ASSIGN_OR_RETURN(WhereExpr inner, ParseWhereUnary(cur));
    WhereExpr e;
    e.kind = WhereExpr::Kind::kNot;
    e.children.push_back(std::move(inner));
    return e;
  }
  if (cur->Peek().IsPunct("(")) {
    // Parenthesized condition (sub-selects are handled by IN above).
    size_t mark = cur->Position();
    cur->Next();
    Result<WhereExpr> inner = ParseWhere(cur);
    if (inner.ok() && cur->ConsumePunct(")")) return std::move(inner).value();
    cur->SeekTo(mark);
  }
  return ParseWhereComparison(cur);
}

Result<WhereExpr> ParseWhereAnd(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(WhereExpr lhs, ParseWhereUnary(cur));
  while (cur->ConsumeIdent("AND")) {
    DBPC_ASSIGN_OR_RETURN(WhereExpr rhs, ParseWhereUnary(cur));
    WhereExpr e;
    e.kind = WhereExpr::Kind::kAnd;
    e.children.push_back(std::move(lhs));
    e.children.push_back(std::move(rhs));
    lhs = std::move(e);
  }
  return lhs;
}

Result<WhereExpr> ParseWhere(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(WhereExpr lhs, ParseWhereAnd(cur));
  while (cur->ConsumeIdent("OR")) {
    DBPC_ASSIGN_OR_RETURN(WhereExpr rhs, ParseWhereAnd(cur));
    WhereExpr e;
    e.kind = WhereExpr::Kind::kOr;
    e.children.push_back(std::move(lhs));
    e.children.push_back(std::move(rhs));
    lhs = std::move(e);
  }
  return lhs;
}

Result<SelectQuery> ParseSelect(TokenCursor* cur) {
  SelectQuery q;
  DBPC_RETURN_IF_ERROR(cur->ExpectIdent("SELECT"));
  if (!cur->ConsumePunct("*")) {
    do {
      DBPC_ASSIGN_OR_RETURN(std::string col,
                            cur->TakeIdentifier("column name"));
      q.projection.push_back(std::move(col));
    } while (cur->ConsumePunct(","));
  }
  DBPC_RETURN_IF_ERROR(cur->ExpectIdent("FROM"));
  DBPC_ASSIGN_OR_RETURN(q.from, cur->TakeIdentifier("relation name"));
  if (cur->ConsumeIdent("WHERE")) {
    DBPC_ASSIGN_OR_RETURN(WhereExpr where, ParseWhere(cur));
    q.where = std::move(where);
  }
  if (cur->ConsumeIdent("ORDER")) {
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("BY"));
    do {
      DBPC_ASSIGN_OR_RETURN(std::string col, cur->TakeIdentifier("column"));
      q.order_by.push_back(std::move(col));
    } while (cur->ConsumePunct(","));
  }
  return q;
}

Result<bool> EvalWhere(const Database& db, RecordId id, const WhereExpr& e,
                       const HostEnv& host_env);

Result<std::vector<Value>> SubqueryColumn(const Database& db,
                                          const SelectQuery& sub,
                                          const HostEnv& host_env) {
  if (sub.projection.size() != 1) {
    return Status::InvalidArgument(
        "IN sub-select must project exactly one column");
  }
  DBPC_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        EvaluateSelect(db, sub, host_env));
  std::vector<Value> out;
  out.reserve(rows.size());
  for (Row& row : rows) out.push_back(std::move(row[0]));
  return out;
}

Result<bool> EvalWhere(const Database& db, RecordId id, const WhereExpr& e,
                       const HostEnv& host_env) {
  switch (e.kind) {
    case WhereExpr::Kind::kCompare: {
      Predicate p = Predicate::Compare(e.field, e.op, e.rhs);
      return p.Evaluate(db.FieldGetter(id), host_env);
    }
    case WhereExpr::Kind::kAnd: {
      DBPC_ASSIGN_OR_RETURN(bool l,
                            EvalWhere(db, id, e.children[0], host_env));
      if (!l) return false;
      return EvalWhere(db, id, e.children[1], host_env);
    }
    case WhereExpr::Kind::kOr: {
      DBPC_ASSIGN_OR_RETURN(bool l,
                            EvalWhere(db, id, e.children[0], host_env));
      if (l) return true;
      return EvalWhere(db, id, e.children[1], host_env);
    }
    case WhereExpr::Kind::kNot: {
      DBPC_ASSIGN_OR_RETURN(bool l,
                            EvalWhere(db, id, e.children[0], host_env));
      return !l;
    }
    case WhereExpr::Kind::kIn: {
      DBPC_ASSIGN_OR_RETURN(std::vector<Value> column,
                            SubqueryColumn(db, *e.subquery, host_env));
      DBPC_ASSIGN_OR_RETURN(Value v, db.GetField(id, e.field));
      for (const Value& candidate : column) {
        std::optional<int> cmp = QueryCompare(v, candidate);
        if (cmp.has_value() && *cmp == 0) return true;
      }
      return false;
    }
  }
  return Status::Internal("corrupt where expression");
}

}  // namespace

Result<SelectQuery> ParseSelect(const std::string& text) {
  DBPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  TokenCursor cur(std::move(tokens));
  DBPC_ASSIGN_OR_RETURN(SelectQuery q, ParseSelect(&cur));
  if (!cur.AtEnd()) return cur.ErrorHere("trailing input after SELECT");
  return q;
}

Result<std::vector<RecordId>> EvaluateSelectIds(const Database& db,
                                                const SelectQuery& query,
                                                const HostEnv& host_env) {
  if (db.schema().FindRecordType(query.from) == nullptr) {
    return Status::NotFound("relation " + query.from);
  }
  std::vector<RecordId> out;
  for (RecordId id : db.AllOfType(query.from)) {
    bool keep = true;
    if (query.where.has_value()) {
      DBPC_ASSIGN_OR_RETURN(keep, EvalWhere(db, id, *query.where, host_env));
    }
    if (keep) out.push_back(id);
  }
  if (!query.order_by.empty()) {
    DBPC_ASSIGN_OR_RETURN(out,
                          SortRecords(db, std::move(out), query.order_by));
  }
  return out;
}

Result<std::vector<Row>> EvaluateSelect(const Database& db,
                                        const SelectQuery& query,
                                        const HostEnv& host_env) {
  DBPC_ASSIGN_OR_RETURN(std::vector<RecordId> ids,
                        EvaluateSelectIds(db, query, host_env));
  const RecordTypeDef* rec = db.schema().FindRecordType(query.from);
  std::vector<std::string> columns = query.projection;
  if (columns.empty()) {
    for (const FieldDef& f : rec->fields) columns.push_back(f.name);
  }
  std::vector<Row> rows;
  rows.reserve(ids.size());
  for (RecordId id : ids) {
    Row row;
    row.reserve(columns.size());
    for (const std::string& col : columns) {
      DBPC_ASSIGN_OR_RETURN(Value v, db.GetField(id, col));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<Schema> RelationalizeSchema(const Schema& network) {
  Schema out("REL-" + network.name());
  for (const RecordTypeDef& r : network.record_types()) {
    RecordTypeDef rel = r;
    for (FieldDef& f : rel.fields) {
      if (f.is_virtual) {
        f.is_virtual = false;
        f.via_set.clear();
        f.using_field.clear();
      }
    }
    DBPC_RETURN_IF_ERROR(out.AddRecordType(std::move(rel)));
  }
  for (const ConstraintDef& c : network.constraints()) {
    if (c.kind == ConstraintKind::kUniqueness ||
        c.kind == ConstraintKind::kNonNull) {
      DBPC_RETURN_IF_ERROR(out.AddConstraint(c));
    }
    // Existence and cardinality constraints have no relational expression
    // in the 1979 model (paper section 3.1); they are dropped.
  }
  DBPC_RETURN_IF_ERROR(out.Validate());
  return out;
}

Result<Database> RelationalizeData(const Database& network) {
  DBPC_ASSIGN_OR_RETURN(Schema rel_schema,
                        RelationalizeSchema(network.schema()));
  DBPC_ASSIGN_OR_RETURN(Database rel, Database::Create(std::move(rel_schema)));
  CopySpec spec;
  spec.map_set = [](const std::string&) -> std::optional<std::string> {
    return std::nullopt;
  };
  spec.extra_fields = [&network](const Database& src, RecordId id,
                                 const std::string& type) -> Result<FieldMap> {
    FieldMap out;
    const RecordTypeDef* rec = network.schema().FindRecordType(type);
    for (const FieldDef& f : rec->fields) {
      if (!f.is_virtual) continue;
      DBPC_ASSIGN_OR_RETURN(Value v, src.GetField(id, f.name));
      out[ToUpper(f.name)] = std::move(v);
    }
    return out;
  };
  DBPC_RETURN_IF_ERROR(CopyDatabase(network, &rel, spec).status());
  return rel;
}

}  // namespace dbpc
