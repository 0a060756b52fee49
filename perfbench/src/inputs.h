#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Workload inputs. Everything here is a pure function of the seed, so the
// same seed gives byte-identical payloads and databases; the program under
// test only ever sees what these functions produce.

#include <cstdint>
#include <string>
#include <vector>

#include "api/dbpc.h"

namespace perfbench {

/// One conversion request as the load generator sends it.
struct Payload {
  std::string name;    ///< `name=` token; differs for every request.
  std::string source;  ///< CPL source, its PROGRAM line naming `name`.
  bool trace = false;  ///< SUBMIT ... trace=1
};

/// serve-hot: a repeat-heavy mix over the E15 cacheable templates (every
/// corpus shape that converts without the analyst). Requests pick a
/// template at random and carry their own program name, so hits come from
/// canonical-template sharing, not identical bytes.
class HotMix {
 public:
  static constexpr int kTemplates = 32;
  static constexpr int kTraceEvery = 50;

  explicit HotMix(uint64_t seed);
  Payload Make(uint64_t index) const;
  const std::vector<std::string>& template_bodies() const { return bodies_; }

 private:
  uint64_t seed_;
  std::vector<std::string> bodies_;  ///< canonical body text per template
};

/// serve-cold: every request a distinct program, built from 1..kMaxBlocks
/// corpus statement blocks (a size sawtooth: request i has 1 + i % kMaxBlocks
/// blocks) and closed by a DISPLAY of a literal unique to (seed, index), so
/// no two requests share a canonical body and the template cache never
/// hits.
class ColdMix {
 public:
  static constexpr int kMaxBlocks = 4;

  explicit ColdMix(uint64_t seed);
  Payload Make(uint64_t index) const;

 private:
  uint64_t seed_;
  std::vector<std::string> blocks_;  ///< statement text of one corpus body
};

/// migrate: the generated application system, `copies` rounds of the
/// corpus mix without the shapes that need the analyst. Sort keys end in a
/// unique field (EMP-NAME), as in the differential fuzzer: a sort on AGE
/// alone leaves tied rows in access-path order, which the conversion does
/// not preserve (README.md, "Known defect").
std::vector<dbpc::ConversionRequest> MigrateSystem(uint64_t seed, int copies);

/// True when running `program` can change the database.
bool WritesDatabase(const dbpc::Program& program);

/// A COMPANY source database bulk-built through extent tables: `divisions`
/// divisions (the corpus's named divisions first) of `emps_per_div`
/// employees each, field values drawn from the seed.
dbpc::Database BuildCompany(const dbpc::Schema& schema, uint64_t seed,
                            int divisions, int emps_per_div);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
