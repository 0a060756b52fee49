#include "inputs.h"

#include <algorithm>
#include <set>

#include "util.h"

namespace perfbench {
namespace {

/// SplitMix64: a stateless mix, so request i's choices depend only on
/// (seed, i) and payloads can be made in any order.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

unsigned CorpusSeed(uint64_t seed, uint64_t round) {
  return static_cast<unsigned>(Mix(seed * 1000003ULL + round) & 0x7fffffffu);
}

/// The shapes that convert without consulting the analyst under the
/// Figure 4.4 plan (the E15 cacheable set), `per_shape` of each.
dbpc::CorpusMix CacheableMix(int per_shape, int runtime_variable) {
  dbpc::CorpusMix mix;
  mix.maryland_reports = per_shape;
  mix.sorted_reports = per_shape;
  mix.navigational_reports = per_shape;
  mix.nested_navigational = 0;
  mix.updates = per_shape;
  mix.deletions = per_shape;
  mix.stores = per_shape;
  mix.file_reports = per_shape;
  mix.ambiguous_owner = 0;
  mix.status_dependent = 0;
  mix.erase_in_scan = 0;
  mix.runtime_variable = runtime_variable;
  return mix;
}

/// Splits Program::ToSource() output into its PROGRAM line and the rest.
std::pair<std::string, std::string> SplitNameLine(const std::string& text) {
  size_t nl = text.find('\n');
  if (text.rfind("PROGRAM ", 0) != 0 || nl == std::string::npos) {
    Die("unexpected program text: " + text.substr(0, 40));
  }
  return {text.substr(0, nl), text.substr(nl)};
}

/// The statement lines of a program's source: no PROGRAM line, no END.
std::string BodyText(const dbpc::Program& program) {
  std::string tail = SplitNameLine(program.ToSource()).second;
  size_t end = tail.rfind("END PROGRAM.");
  if (end == std::string::npos) Die("program text without END PROGRAM.");
  return tail.substr(1, end - 1);
}

/// Source text of `program` under a new name.
std::string RenamedSource(const dbpc::Program& program,
                          const std::string& name) {
  return "PROGRAM " + name + "." + SplitNameLine(program.ToSource()).second;
}

}  // namespace

HotMix::HotMix(uint64_t seed) : seed_(seed) {
  std::set<std::string> seen;
  for (uint64_t round = 0; static_cast<int>(bodies_.size()) < kTemplates;
       ++round) {
    if (round > 64) Die("corpus yields too few distinct templates");
    for (dbpc::CorpusProgram& entry : dbpc::GenerateCompanyCorpus(
             CacheableMix(5, 1), CorpusSeed(seed, round))) {
      std::string body = BodyText(entry.program);
      if (!seen.insert(body).second) continue;
      bodies_.push_back(std::move(body));
      if (static_cast<int>(bodies_.size()) == kTemplates) break;
    }
  }
}

Payload HotMix::Make(uint64_t index) const {
  Payload p;
  p.name = "H-" + std::to_string(index);
  const std::string& body = bodies_[Mix(seed_ ^ Mix(index)) % bodies_.size()];
  p.source = "PROGRAM " + p.name + ".\n" + body + "END PROGRAM.\n";
  p.trace = index % kTraceEvery == 0;
  return p;
}

ColdMix::ColdMix(uint64_t seed) : seed_(seed) {
  for (dbpc::CorpusProgram& entry :
       dbpc::GenerateCompanyCorpus(CacheableMix(4, 0), CorpusSeed(seed, 0))) {
    blocks_.push_back(BodyText(entry.program));
  }
}

Payload ColdMix::Make(uint64_t index) const {
  Payload p;
  p.name = "C-" + std::to_string(index);
  p.source = "PROGRAM " + p.name + ".\n";
  const int blocks = 1 + static_cast<int>(index % kMaxBlocks);
  uint64_t state = Mix(seed_ ^ Mix(index + 0x5eed));
  for (int b = 0; b < blocks; ++b) {
    state = Mix(state);
    p.source += blocks_[state % blocks_.size()];
  }
  p.source += "  DISPLAY 'C-" + std::to_string(seed_) + "-" +
              std::to_string(index) + "'.\nEND PROGRAM.\n";
  return p;
}

std::vector<dbpc::ConversionRequest> MigrateSystem(uint64_t seed,
                                                   int copies) {
  std::vector<dbpc::ConversionRequest> out;
  for (int c = 0; c < copies; ++c) {
    dbpc::CorpusMix mix = CacheableMix(0, 1);
    mix.maryland_reports = 4;
    mix.sorted_reports = 2;
    mix.navigational_reports = 4;
    mix.updates = 3;
    mix.deletions = 1;
    mix.stores = 3;
    mix.file_reports = 1;
    for (dbpc::CorpusProgram& e :
         dbpc::GenerateCompanyCorpus(mix, CorpusSeed(seed, c))) {
      dbpc::ConversionRequest request;
      request.name = "M-" + std::to_string(out.size());
      request.source = RenamedSource(e.program, request.name);
      const std::string age_only = ") ON (AGE) DO";
      const size_t at = request.source.find(age_only);
      if (at != std::string::npos) {
        request.source.replace(at, age_only.size(), ") ON (AGE, EMP-NAME) DO");
      }
      out.push_back(std::move(request));
    }
  }
  return out;
}

bool WritesDatabase(const dbpc::Program& program) {
  bool writes = false;
  dbpc::VisitStmts(program.body, [&](const dbpc::Stmt& s) {
    switch (s.kind) {
      case dbpc::StmtKind::kStore:
      case dbpc::StmtKind::kModify:
      case dbpc::StmtKind::kDelete:
      case dbpc::StmtKind::kNavStore:
      case dbpc::StmtKind::kNavModify:
      case dbpc::StmtKind::kNavErase:
      case dbpc::StmtKind::kConnect:
      case dbpc::StmtKind::kDisconnect:
      case dbpc::StmtKind::kCallDml:
        writes = true;
        break;
      default:
        break;
    }
  });
  return writes;
}

dbpc::Database BuildCompany(const dbpc::Schema& schema, uint64_t seed,
                            int divisions, int emps_per_div) {
  using dbpc::FieldType;
  using dbpc::Value;
  dbpc::Database db = Must(dbpc::Database::Create(schema), "create database");
  dbpc::Store& store = db.mutable_store();
  static const char* kLocs[] = {"EAST", "WEST", "SOUTH"};
  static const char* kDepts[] = {"SALES", "PLANG", "ADMIN"};

  // The corpus's predicates name MACHINERY, TEXTILES and DIV-0000..2; the
  // rest are numbered. ALL-DIV and DIV-EMP are sorted sets (by DIV-NAME and
  // EMP-NAME), so rows are staged in key order and linked last-in-order.
  std::vector<std::string> div_names = {"MACHINERY", "TEXTILES"};
  char buf[40];
  for (int d = 0; static_cast<int>(div_names.size()) < divisions; ++d) {
    std::snprintf(buf, sizeof(buf), "DIV-%04d", d);
    div_names.push_back(buf);
  }
  std::sort(div_names.begin(), div_names.end());

  dbpc::ExtentTable divs("DIV", {"DIV-NAME", "DIV-LOC"},
                         {FieldType::kString, FieldType::kString});
  dbpc::ExtentTable emps("EMP", {"EMP-NAME", "DEPT-NAME", "AGE"},
                         {FieldType::kString, FieldType::kString,
                          FieldType::kInt});
  uint64_t state = Mix(seed);
  for (size_t d = 0; d < div_names.size(); ++d) {
    state = Mix(state);
    divs.AppendRow(0, {Value::String(div_names[d]),
                       Value::String(kLocs[state % 3])});
    for (int e = 0; e < emps_per_div; ++e) {
      state = Mix(state);
      std::snprintf(buf, sizeof(buf), "EMP-%04zu-%05d", d, e);
      emps.AppendRow(0, {Value::String(buf), Value::String(kDepts[state % 3]),
                         Value::Int(20 + static_cast<int64_t>((state >> 8) % 45))});
    }
  }
  const dbpc::ExtentTable& div_rows = store.AdoptExtents(std::move(divs));
  std::vector<dbpc::RecordId> div_ids(div_rows.rows());
  {
    dbpc::Store::BulkLinker linker = store.LinkerFor("ALL-DIV", div_ids.size());
    for (size_t r = 0; r < div_ids.size(); ++r) {
      div_ids[r] = div_rows.IdAt(r);
      Check(linker.LinkLast(dbpc::kSystemOwner, div_ids[r]), "link DIV");
    }
  }
  const dbpc::ExtentTable& emp_rows = store.AdoptExtents(std::move(emps));
  dbpc::Store::BulkLinker linker = store.LinkerFor("DIV-EMP", emp_rows.rows());
  for (size_t r = 0; r < emp_rows.rows(); ++r) {
    Check(linker.LinkLast(div_ids[r / emps_per_div], emp_rows.IdAt(r)),
          "link EMP");
  }
  db.RebuildIndexes();
  return db;
}

}  // namespace perfbench
