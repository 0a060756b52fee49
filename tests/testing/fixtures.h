#ifndef DBPC_TESTS_TESTING_FIXTURES_H_
#define DBPC_TESTS_TESTING_FIXTURES_H_

#include <string>

#include "engine/database.h"
#include "restructure/plan_parser.h"
#include "schema/schema.h"

namespace dbpc::testing {

/// The Figure 4.3 company schema (DIV owns EMP through DIV-EMP; EMP carries
/// a VIRTUAL DIV-NAME) verbatim from the paper, in the Maryland DDL.
std::string CompanyDdl();

/// The Figure 4.4 revision: DIV -> DIV-DEPT -> DEPT -> DEPT-EMP -> EMP.
std::string CompanyRevisedDdl();

/// The Figure 3.1 school database as an owner-coupled-set schema:
/// COURSE and SEMESTER own COURSE-OFFERING (AUTOMATIC, MANDATORY),
/// plus the "course offered at most twice per year" cardinality rule.
std::string SchoolDdl();

/// The Figure 4.4 restructuring plan: INTRODUCE RECORD DEPT between DIV
/// and EMP, grouping by DEPT-NAME.
RestructuringPlan Figure44Plan();

/// Parses `ddl` and creates an empty database; aborts the test on failure.
Database MakeDatabase(const std::string& ddl);

/// Company database with divisions MACHINERY (SALES dept employees ADAMS,
/// BAKER; PLANNING dept employee CLARK) and TEXTILES (SALES dept employee
/// DAVIS), matching the shapes used by the paper's FIND examples.
Database MakeCompanyDatabase();

/// Populates an (empty) company database with `divisions` divisions and
/// `emps_per_div` employees each, deterministic contents (benchmarks).
void FillCompany(Database* db, int divisions, int emps_per_div);

/// School database with a handful of courses, semesters and offerings.
Database MakeSchoolDatabase();

}  // namespace dbpc::testing

#endif  // DBPC_TESTS_TESTING_FIXTURES_H_
