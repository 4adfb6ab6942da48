#ifndef TABBENCH_EXEC_OPERATORS_H_
#define TABBENCH_EXEC_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/exec_context.h"
#include "exec/in_set.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "storage/tuple_codec.h"
#include "types/tuple.h"
#include "util/status.h"

namespace tabbench {

/// Volcano-style physical operator. Open() prepares (and for pipeline
/// breakers does the blocking work); Next() yields rows until false.
/// Every operator charges its work to the shared ExecContext and surfaces
/// Status::Timeout as soon as the simulated clock trips.
///
/// Next() centrally counts emitted rows so EXPLAIN ANALYZE can report
/// per-operator actual cardinalities; subclasses implement NextImpl().
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;

  /// Yields the next row into *out; value `false` signals end of stream.
  Result<bool> Next(Tuple* out) {
    Result<bool> r = NextImpl(out);
    if (r.ok() && *r) ++rows_emitted_;
    return r;
  }

  /// Rows this operator has emitted so far (EXPLAIN ANALYZE).
  uint64_t rows_emitted() const { return rows_emitted_; }

 protected:
  virtual Result<bool> NextImpl(Tuple* out) = 0;

 private:
  uint64_t rows_emitted_ = 0;
};

/// A residual predicate compiled to tuple positions.
struct CompiledPred {
  ResidualPred::Kind kind = ResidualPred::Kind::kColEqLit;
  int pos_a = -1;
  int pos_b = -1;
  Value literal;
  const FlatInSet* in_set = nullptr;

  bool Eval(const Tuple& t) const;
  /// Eval on Concat(left, right), without building the concatenation.
  bool EvalJoined(const Tuple& left, const Tuple& right) const;
  /// Eval on Concat(outer, row) with `row` read in place: positions before
  /// outer.size() read the decoded outer values, the others the columns of
  /// `row`, an encoded record of `codec` (TupleCodec::Column). Equal to Eval
  /// on the decoded concatenation, so a filtering read decodes only the rows
  /// that pass.
  bool EvalEncoded(const Tuple& outer, const TupleCodec& codec,
                   const uint8_t* row) const;
};

/// Compiles a node's residual predicates against its output slot layout.
/// Shared between the Volcano operators and the vectorized pipeline
/// compiler so both executors evaluate identical predicate programs.
Result<std::vector<CompiledPred>> CompilePreds(const PlanNode& node,
                                               const InSets& in_sets);

/// Pairs each plan node with its instantiated operator, so actual row
/// counts can be written back after execution (EXPLAIN ANALYZE).
using OperatorRegistry = std::vector<std::pair<const PlanNode*, const Operator*>>;

/// Instantiates the operator tree for `node`. `in_sets` must outlive the
/// returned operator. When `registry` is non-null every constructed
/// operator is recorded against its plan node.
Result<std::unique_ptr<Operator>> BuildOperator(const PlanNode& node,
                                                const ObjectResolver& resolver,
                                                const InSets& in_sets,
                                                ExecContext* ctx,
                                                OperatorRegistry* registry = nullptr);

}  // namespace tabbench

#endif  // TABBENCH_EXEC_OPERATORS_H_
