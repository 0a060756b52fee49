#include "lang/parser.h"

#include "common/lexer.h"

namespace dbpc {

namespace {

// --- host expressions ------------------------------------------------------

Result<HostExpr> ParseExpr(TokenCursor* cur);

Result<HostExpr> ParseFactor(TokenCursor* cur) {
  const Token& t = cur->Peek();
  switch (t.kind) {
    case TokenKind::kInteger:
      cur->Next();
      return HostExpr::Lit(Value::Int(t.int_value));
    case TokenKind::kFloat:
      cur->Next();
      return HostExpr::Lit(Value::Double(t.float_value));
    case TokenKind::kString:
      cur->Next();
      return HostExpr::Lit(Value::String(t.text));
    case TokenKind::kIdentifier:
      if (t.text == "NULL") {
        cur->Next();
        return HostExpr::Lit(Value::Null());
      }
      cur->Next();
      return HostExpr::Var(t.text);
    case TokenKind::kPunct:
      if (t.text == "(") {
        cur->Next();
        DBPC_ASSIGN_OR_RETURN(HostExpr inner, ParseExpr(cur));
        DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
        return inner;
      }
      if (t.text == "-") {
        cur->Next();
        DBPC_ASSIGN_OR_RETURN(HostExpr inner, ParseFactor(cur));
        return HostExpr::Binary('-', HostExpr::Lit(Value::Int(0)),
                                std::move(inner));
      }
      break;
    default:
      break;
  }
  return cur->ErrorHere("expected expression");
}

Result<HostExpr> ParseTerm(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(HostExpr lhs, ParseFactor(cur));
  while (cur->Peek().IsPunct("*") || cur->Peek().IsPunct("/")) {
    char op = cur->Next().text[0];
    DBPC_ASSIGN_OR_RETURN(HostExpr rhs, ParseFactor(cur));
    lhs = HostExpr::Binary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<HostExpr> ParseExpr(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(HostExpr lhs, ParseTerm(cur));
  while (cur->Peek().IsPunct("+") || cur->Peek().IsPunct("-") ||
         cur->Peek().IsPunct("&")) {
    char op = cur->Next().text[0];
    DBPC_ASSIGN_OR_RETURN(HostExpr rhs, ParseTerm(cur));
    lhs = HostExpr::Binary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

// --- host conditions -------------------------------------------------------

Result<HostCond> ParseCond(TokenCursor* cur);

Result<HostCond> ParseComparisonCond(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(HostExpr lhs, ParseExpr(cur));
  if (cur->ConsumeIdent("IS")) {
    bool negated = cur->ConsumeIdent("NOT");
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("NULL"));
    HostCond c;
    c.kind = HostCond::Kind::kCompare;
    c.op = negated ? CompareOp::kIsNotNull : CompareOp::kIsNull;
    c.operands.push_back(std::move(lhs));
    return c;
  }
  DBPC_ASSIGN_OR_RETURN(CompareOp op,
                        ParseCompareOp(cur, "expected comparison operator"));
  DBPC_ASSIGN_OR_RETURN(HostExpr rhs, ParseExpr(cur));
  return HostCond::Compare(std::move(lhs), op, std::move(rhs));
}

Result<HostCond> ParseCondUnary(TokenCursor* cur) {
  if (cur->ConsumeIdent("NOT")) {
    DBPC_ASSIGN_OR_RETURN(HostCond inner, ParseCondUnary(cur));
    HostCond c;
    c.kind = HostCond::Kind::kNot;
    c.children.push_back(std::move(inner));
    return c;
  }
  if (cur->Peek().IsPunct("(")) {
    // '(' may open a parenthesized condition or a parenthesized expression
    // inside a comparison; try the condition reading first and backtrack.
    size_t mark = cur->Position();
    cur->Next();
    Result<HostCond> inner = ParseCond(cur);
    if (inner.ok() && cur->ConsumePunct(")")) {
      // Ensure this was a full condition, not the left side of a comparison
      // (e.g. "(A + 1) > 2" parses 'A + 1' as a cond only if it had an op).
      const Token& next = cur->Peek();
      bool followed_by_cmp = next.IsPunct("=") || next.IsPunct("<>") ||
                             next.IsPunct("<") || next.IsPunct("<=") ||
                             next.IsPunct(">") || next.IsPunct(">=") ||
                             next.IsIdent("IS");
      if (!followed_by_cmp) return inner;
    }
    cur->SeekTo(mark);
  }
  return ParseComparisonCond(cur);
}

Result<HostCond> ParseCondAnd(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(HostCond lhs, ParseCondUnary(cur));
  while (cur->ConsumeIdent("AND")) {
    DBPC_ASSIGN_OR_RETURN(HostCond rhs, ParseCondUnary(cur));
    HostCond c;
    c.kind = HostCond::Kind::kAnd;
    c.children.push_back(std::move(lhs));
    c.children.push_back(std::move(rhs));
    lhs = std::move(c);
  }
  return lhs;
}

Result<HostCond> ParseCond(TokenCursor* cur) {
  DBPC_ASSIGN_OR_RETURN(HostCond lhs, ParseCondAnd(cur));
  while (cur->ConsumeIdent("OR")) {
    DBPC_ASSIGN_OR_RETURN(HostCond rhs, ParseCondAnd(cur));
    HostCond c;
    c.kind = HostCond::Kind::kOr;
    c.children.push_back(std::move(lhs));
    c.children.push_back(std::move(rhs));
    lhs = std::move(c);
  }
  return lhs;
}

// --- statements -------------------------------------------------------------

Status ExpectPeriod(TokenCursor* cur) {
  if (cur->ConsumePunct(".")) return Status::OK();
  return cur->ErrorHere("expected '.' ending statement");
}

Result<std::vector<std::pair<std::string, HostExpr>>> ParseAssignments(
    TokenCursor* cur) {
  DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
  std::vector<std::pair<std::string, HostExpr>> out;
  do {
    DBPC_ASSIGN_OR_RETURN(std::string field, cur->TakeIdentifier("field name"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("="));
    DBPC_ASSIGN_OR_RETURN(HostExpr value, ParseExpr(cur));
    out.emplace_back(std::move(field), std::move(value));
  } while (cur->ConsumePunct(","));
  DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
  return out;
}

Result<std::vector<Stmt>> ParseBlock(TokenCursor* cur,
                                     const std::vector<std::string>& enders);

Result<Stmt> ParseStmt(TokenCursor* cur) {
  Stmt stmt;
  const Token& head = cur->Peek();
  if (head.kind != TokenKind::kIdentifier) {
    return cur->ErrorHere("expected statement");
  }

  if (cur->ConsumeIdent("LET")) {
    stmt.kind = StmtKind::kLet;
    DBPC_ASSIGN_OR_RETURN(stmt.target_var, cur->TakeIdentifier("variable"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("="));
    DBPC_ASSIGN_OR_RETURN(HostExpr e, ParseExpr(cur));
    stmt.exprs.push_back(std::move(e));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("DISPLAY")) {
    stmt.kind = StmtKind::kDisplay;
    do {
      DBPC_ASSIGN_OR_RETURN(HostExpr e, ParseExpr(cur));
      stmt.exprs.push_back(std::move(e));
    } while (cur->ConsumePunct(","));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("ACCEPT")) {
    stmt.kind = StmtKind::kAccept;
    DBPC_ASSIGN_OR_RETURN(stmt.target_var, cur->TakeIdentifier("variable"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("READ")) {
    stmt.kind = StmtKind::kRead;
    DBPC_ASSIGN_OR_RETURN(stmt.file, cur->TakeIdentifier("file name"));
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("INTO"));
    DBPC_ASSIGN_OR_RETURN(stmt.target_var, cur->TakeIdentifier("variable"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("WRITE")) {
    stmt.kind = StmtKind::kWrite;
    DBPC_ASSIGN_OR_RETURN(stmt.file, cur->TakeIdentifier("file name"));
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("FROM"));
    do {
      DBPC_ASSIGN_OR_RETURN(HostExpr e, ParseExpr(cur));
      stmt.exprs.push_back(std::move(e));
    } while (cur->ConsumePunct(","));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("IF")) {
    stmt.kind = StmtKind::kIf;
    DBPC_ASSIGN_OR_RETURN(HostCond cond, ParseCond(cur));
    stmt.cond = std::move(cond);
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("THEN"));
    DBPC_ASSIGN_OR_RETURN(stmt.body, ParseBlock(cur, {"ELSE", "END-IF"}));
    if (cur->ConsumeIdent("ELSE")) {
      DBPC_ASSIGN_OR_RETURN(stmt.else_body, ParseBlock(cur, {"END-IF"}));
    }
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("END-IF"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("WHILE")) {
    stmt.kind = StmtKind::kWhile;
    DBPC_ASSIGN_OR_RETURN(HostCond cond, ParseCond(cur));
    stmt.cond = std::move(cond);
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("DO"));
    DBPC_ASSIGN_OR_RETURN(stmt.body, ParseBlock(cur, {"END-WHILE"}));
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("END-WHILE"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("FOR")) {
    stmt.kind = StmtKind::kForEach;
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("EACH"));
    DBPC_ASSIGN_OR_RETURN(stmt.cursor, cur->TakeIdentifier("cursor name"));
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("IN"));
    if (cur->ConsumeIdent("COLLECTION")) {
      DBPC_ASSIGN_OR_RETURN(stmt.collection_var,
                            cur->TakeIdentifier("collection variable"));
    } else {
      DBPC_ASSIGN_OR_RETURN(Retrieval r, ParseRetrieval(cur));
      stmt.retrieval = std::move(r);
    }
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("DO"));
    DBPC_ASSIGN_OR_RETURN(stmt.body, ParseBlock(cur, {"END-FOR"}));
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("END-FOR"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("RETRIEVE")) {
    stmt.kind = StmtKind::kRetrieve;
    DBPC_ASSIGN_OR_RETURN(stmt.target_var,
                          cur->TakeIdentifier("collection variable"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("="));
    DBPC_ASSIGN_OR_RETURN(Retrieval r, ParseRetrieval(cur));
    stmt.retrieval = std::move(r);
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("GET")) {
    DBPC_ASSIGN_OR_RETURN(stmt.field, cur->TakeIdentifier("field name"));
    if (cur->ConsumeIdent("OF")) {
      stmt.kind = StmtKind::kGetField;
      DBPC_ASSIGN_OR_RETURN(stmt.cursor, cur->TakeIdentifier("cursor name"));
    } else {
      stmt.kind = StmtKind::kNavGet;
    }
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("INTO"));
    DBPC_ASSIGN_OR_RETURN(stmt.target_var, cur->TakeIdentifier("variable"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("STORE")) {
    DBPC_ASSIGN_OR_RETURN(stmt.record_type,
                          cur->TakeIdentifier("record type"));
    DBPC_ASSIGN_OR_RETURN(stmt.assignments, ParseAssignments(cur));
    if (cur->ConsumeIdent("USING")) {
      DBPC_RETURN_IF_ERROR(cur->ExpectIdent("CURRENCY"));
      stmt.kind = StmtKind::kNavStore;
    } else {
      stmt.kind = StmtKind::kStore;
      while (cur->ConsumeIdent("IN")) {
        Stmt::OwnerSelect sel;
        DBPC_ASSIGN_OR_RETURN(sel.set_name, cur->TakeIdentifier("set name"));
        DBPC_RETURN_IF_ERROR(cur->ExpectIdent("WHERE"));
        DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
        DBPC_ASSIGN_OR_RETURN(sel.pred, ParsePredicate(cur));
        DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
        stmt.owners.push_back(std::move(sel));
      }
    }
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("MODIFY")) {
    if (cur->Peek().IsIdent("SET")) {
      cur->Next();
      stmt.kind = StmtKind::kNavModify;
      DBPC_ASSIGN_OR_RETURN(stmt.assignments, ParseAssignments(cur));
    } else {
      stmt.kind = StmtKind::kModify;
      DBPC_ASSIGN_OR_RETURN(stmt.cursor, cur->TakeIdentifier("cursor name"));
      DBPC_RETURN_IF_ERROR(cur->ExpectIdent("SET"));
      DBPC_ASSIGN_OR_RETURN(stmt.assignments, ParseAssignments(cur));
    }
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("DELETE")) {
    stmt.kind = StmtKind::kDelete;
    DBPC_ASSIGN_OR_RETURN(stmt.cursor, cur->TakeIdentifier("cursor name"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("ERASE")) {
    stmt.kind = StmtKind::kNavErase;
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("FIND")) {
    stmt.kind = StmtKind::kNavFind;
    NavFind nav;
    if (cur->ConsumeIdent("ANY") || cur->Peek().IsIdent("DUPLICATE")) {
      nav.mode = NavFind::Mode::kAny;
      if (cur->ConsumeIdent("DUPLICATE")) nav.mode = NavFind::Mode::kDuplicate;
      DBPC_ASSIGN_OR_RETURN(nav.record_type,
                            cur->TakeIdentifier("record type"));
      if (cur->ConsumePunct("(")) {
        DBPC_ASSIGN_OR_RETURN(Predicate p, ParsePredicate(cur));
        nav.pred = std::move(p);
        DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
      }
    } else if (cur->ConsumeIdent("FIRST") || cur->Peek().IsIdent("NEXT")) {
      nav.mode = NavFind::Mode::kFirst;
      if (cur->ConsumeIdent("NEXT")) nav.mode = NavFind::Mode::kNext;
      DBPC_ASSIGN_OR_RETURN(nav.record_type,
                            cur->TakeIdentifier("record type"));
      DBPC_RETURN_IF_ERROR(cur->ExpectIdent("WITHIN"));
      DBPC_ASSIGN_OR_RETURN(nav.set_name, cur->TakeIdentifier("set name"));
      if (cur->ConsumeIdent("USING")) {
        DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
        DBPC_ASSIGN_OR_RETURN(Predicate p, ParsePredicate(cur));
        nav.pred = std::move(p);
        DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
      }
    } else if (cur->ConsumeIdent("OWNER")) {
      nav.mode = NavFind::Mode::kOwner;
      DBPC_RETURN_IF_ERROR(cur->ExpectIdent("WITHIN"));
      DBPC_ASSIGN_OR_RETURN(nav.set_name, cur->TakeIdentifier("set name"));
    } else {
      return cur->ErrorHere("expected ANY, DUPLICATE, FIRST, NEXT or OWNER");
    }
    stmt.nav_find = std::move(nav);
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("CONNECT")) {
    stmt.kind = StmtKind::kConnect;
    DBPC_ASSIGN_OR_RETURN(stmt.set_name, cur->TakeIdentifier("set name"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("DISCONNECT")) {
    stmt.kind = StmtKind::kDisconnect;
    DBPC_ASSIGN_OR_RETURN(stmt.set_name, cur->TakeIdentifier("set name"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("CALL")) {
    stmt.kind = StmtKind::kCallDml;
    DBPC_RETURN_IF_ERROR(cur->ExpectIdent("DML"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct("("));
    DBPC_ASSIGN_OR_RETURN(stmt.verb_var, cur->TakeIdentifier("verb variable"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct(","));
    DBPC_ASSIGN_OR_RETURN(stmt.record_type,
                          cur->TakeIdentifier("record type"));
    DBPC_RETURN_IF_ERROR(cur->ExpectPunct(")"));
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  if (cur->ConsumeIdent("STOP")) {
    stmt.kind = StmtKind::kStop;
    DBPC_RETURN_IF_ERROR(ExpectPeriod(cur));
    return stmt;
  }
  return cur->ErrorHere("unknown statement '" + head.text + "'");
}

Result<std::vector<Stmt>> ParseBlock(TokenCursor* cur,
                                     const std::vector<std::string>& enders) {
  std::vector<Stmt> out;
  while (true) {
    const Token& t = cur->Peek();
    if (t.kind == TokenKind::kEnd) {
      return cur->ErrorHere("unterminated block");
    }
    if (t.kind == TokenKind::kIdentifier) {
      bool is_end = false;
      for (const std::string& e : enders) {
        if (t.text == e) {
          is_end = true;
          break;
        }
      }
      // "END PROGRAM" is two tokens; peek ahead.
      if (t.text == "END" && cur->Peek(1).IsIdent("PROGRAM")) {
        for (const std::string& e : enders) {
          if (e == "END PROGRAM") is_end = true;
        }
      }
      if (is_end) return out;
    }
    DBPC_ASSIGN_OR_RETURN(Stmt s, ParseStmt(cur));
    out.push_back(std::move(s));
  }
}

}  // namespace

Result<Program> ParseProgram(const std::string& text) {
  DBPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  TokenCursor cur(std::move(tokens));
  DBPC_RETURN_IF_ERROR(cur.ExpectIdent("PROGRAM"));
  Program program;
  DBPC_ASSIGN_OR_RETURN(program.name, cur.TakeIdentifier("program name"));
  DBPC_RETURN_IF_ERROR(cur.ExpectPunct("."));
  DBPC_ASSIGN_OR_RETURN(program.body, ParseBlock(&cur, {"END PROGRAM"}));
  DBPC_RETURN_IF_ERROR(cur.ExpectIdent("END"));
  DBPC_RETURN_IF_ERROR(cur.ExpectIdent("PROGRAM"));
  DBPC_RETURN_IF_ERROR(cur.ExpectPunct("."));
  if (!cur.AtEnd()) return cur.ErrorHere("trailing input after END PROGRAM");
  return program;
}

Result<Stmt> ParseStatement(const std::string& text) {
  DBPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  TokenCursor cur(std::move(tokens));
  DBPC_ASSIGN_OR_RETURN(Stmt s, ParseStmt(&cur));
  if (!cur.AtEnd()) return cur.ErrorHere("trailing input after statement");
  return s;
}

}  // namespace dbpc
