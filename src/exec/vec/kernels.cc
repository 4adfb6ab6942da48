#include "exec/vec/kernels.h"

namespace tabbench {
namespace vec {

namespace {

void AndEqLit(const Column& c, const Value& lit, std::vector<uint8_t>* pass) {
  const size_t n = c.size();
  uint8_t* p = pass->data();
  if (lit.is_null()) {
    // col = NULL literal: equal exactly when the column value is NULL
    // (Value::Compare sorts NULL == NULL).
    for (size_t i = 0; i < n; ++i) p[i] &= c.nulls[i];
    return;
  }
  switch (c.type) {
    case TypeId::kInt: {
      const int64_t v = lit.as_int();
      const int64_t* a = c.ints.data();
      const uint8_t* nu = c.nulls.data();
      for (size_t i = 0; i < n; ++i) {
        p[i] &= static_cast<uint8_t>((nu[i] == 0) & (a[i] == v));
      }
      return;
    }
    case TypeId::kDouble: {
      const double v = lit.as_double();
      const double* a = c.doubles.data();
      const uint8_t* nu = c.nulls.data();
      for (size_t i = 0; i < n; ++i) {
        p[i] &= static_cast<uint8_t>((nu[i] == 0) & (a[i] == v));
      }
      return;
    }
    case TypeId::kString: {
      const std::string& v = lit.as_string();
      for (size_t i = 0; i < n; ++i) {
        p[i] &= static_cast<uint8_t>((c.nulls[i] == 0) & (c.strings[i] == v));
      }
      return;
    }
  }
}

void AndEqCol(const Column& a, const Column& b, std::vector<uint8_t>* pass) {
  const size_t n = a.size();
  uint8_t* p = pass->data();
  const uint8_t* na = a.nulls.data();
  const uint8_t* nb = b.nulls.data();
  if (a.type == b.type && a.type == TypeId::kInt) {
    const int64_t* va = a.ints.data();
    const int64_t* vb = b.ints.data();
    for (size_t i = 0; i < n; ++i) {
      p[i] &= static_cast<uint8_t>((na[i] & nb[i]) |
                                   ((na[i] == 0) & (nb[i] == 0) &
                                    (va[i] == vb[i])));
    }
    return;
  }
  if (a.type == b.type && a.type == TypeId::kDouble) {
    const double* va = a.doubles.data();
    const double* vb = b.doubles.data();
    for (size_t i = 0; i < n; ++i) {
      p[i] &= static_cast<uint8_t>((na[i] & nb[i]) |
                                   ((na[i] == 0) & (nb[i] == 0) &
                                    (va[i] == vb[i])));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    p[i] &= static_cast<uint8_t>(a.EqualsColumn(i, b, i));
  }
}

void AndInSet(const Column& c, const FlatInSet& in_set,
              std::vector<uint8_t>* pass) {
  const size_t n = c.size();
  uint8_t* p = pass->data();
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == 0) continue;
    p[i] = in_set.Contains(c.GetValue(i)) ? 1 : 0;
  }
}

}  // namespace

void AndPredIntoPass(const ColumnBatch& batch, const CompiledPred& pred,
                     std::vector<uint8_t>* pass) {
  switch (pred.kind) {
    case ResidualPred::Kind::kColEqLit:
      AndEqLit(batch.col(static_cast<size_t>(pred.pos_a)), pred.literal, pass);
      return;
    case ResidualPred::Kind::kColEqCol:
      AndEqCol(batch.col(static_cast<size_t>(pred.pos_a)),
               batch.col(static_cast<size_t>(pred.pos_b)), pass);
      return;
    case ResidualPred::Kind::kInSet:
      AndInSet(batch.col(static_cast<size_t>(pred.pos_a)), *pred.in_set, pass);
      return;
  }
}

void FilterBatch(const ColumnBatch& batch,
                 const std::vector<CompiledPred>& preds,
                 std::vector<uint8_t>* pass) {
  pass->assign(batch.num_rows(), 1);
  for (const auto& p : preds) AndPredIntoPass(batch, p, pass);
}

void PassToSelection(const std::vector<uint8_t>& pass, SelectionVector* sel) {
  sel->clear();
  sel->resize(pass.size());
  uint32_t* out = sel->data();
  size_t n = 0;
  for (size_t i = 0; i < pass.size(); ++i) {
    out[n] = static_cast<uint32_t>(i);
    n += pass[i];
  }
  sel->resize(n);
}

}  // namespace vec
}  // namespace tabbench
