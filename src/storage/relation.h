// In-memory relation: structure-of-arrays column segments plus a per-tuple
// weight array.
//
// Storage is columnar: each attribute lives in its own contiguous `Value`
// segment (cols_[c][r] is row r's value of column c) and the tuple weights
// sit in their own contiguous double array. The hot preprocessing passes —
// GroupIndex::Build, FlatKeyIndex interning, BuildStageGraph's CSR /
// counting-scatter passes — read whole column segments sequentially instead
// of striding over interleaved rows, and the NextBatch bind path gathers
// from a column segment per variable (BindStateBatch). A row is a
// *virtual* object reassembled on demand through RowRef; code that truly
// needs row-major bytes (the test oracle, the TTF reference bench) uses
// storage/row_reference.h.
//
// The weight column holds the input-tuple weight w(r) of the paper (Def. 4).
// Weights are stored as doubles; dioid-specific weight types are derived at
// DP-build time through a weight functor, so a single physical relation can
// be ranked under different selective dioids.
//
// Per-column min/max counters are maintained on append (free: two compares
// per value) and feed the planner's column statistics (src/plan/stats.h).

#ifndef ANYK_STORAGE_RELATION_H_
#define ANYK_STORAGE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/value.h"
#include "util/logging.h"

namespace anyk {

/// Read-only view of one contiguous column segment. Well-defined for every
/// relation shape: a 0-row relation yields an empty view, and an arity-0
/// relation simply has no columns to view (Relation::Column checks the
/// index). Alias of std::span, so all span idioms apply.
using ColumnView = std::span<const Value>;

/// Cheap per-column statistics maintained on append. `min > max` (the
/// initial state) means the column has no rows yet.
struct ColumnStats {
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();
  bool empty() const { return min > max; }
  /// Size of the value range [min, max] (0 for an empty column): a free
  /// upper bound on the number of distinct values.
  double SpanSize() const {
    if (empty()) return 0.0;
    return static_cast<double>(max) - static_cast<double>(min) + 1.0;
  }
};

/// A named relation with fixed arity, columnar storage and tuple weights.
class Relation {
 public:
  /// Lightweight proxy of one logical row: gathers values across the column
  /// segments on access. Valid as long as the relation is neither mutated
  /// nor destroyed. Well-defined for arity-0 relations (size() == 0,
  /// begin() == end()) — nullary facts are legal CQ atoms.
  class RowRef {
   public:
    RowRef(const Relation* rel, size_t row) : rel_(rel), row_(row) {}

    size_t size() const { return rel_->arity(); }
    bool empty() const { return size() == 0; }
    Value operator[](size_t c) const { return rel_->At(row_, c); }

    /// Random-access iterator over the row's values (column index walk).
    class iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = Value;
      using difference_type = std::ptrdiff_t;
      using pointer = const Value*;
      using reference = Value;

      iterator() = default;
      iterator(const Relation* rel, size_t row, size_t col)
          : rel_(rel), row_(row), col_(col) {}
      Value operator*() const { return rel_->At(row_, col_); }
      iterator& operator++() { ++col_; return *this; }
      iterator operator++(int) { iterator t = *this; ++col_; return t; }
      iterator& operator--() { --col_; return *this; }
      iterator& operator+=(difference_type d) { col_ += d; return *this; }
      iterator operator+(difference_type d) const {
        return iterator(rel_, row_, col_ + d);
      }
      difference_type operator-(const iterator& o) const {
        return static_cast<difference_type>(col_) -
               static_cast<difference_type>(o.col_);
      }
      Value operator[](difference_type d) const {
        return rel_->At(row_, col_ + d);
      }
      bool operator==(const iterator& o) const { return col_ == o.col_; }
      bool operator!=(const iterator& o) const { return col_ != o.col_; }
      bool operator<(const iterator& o) const { return col_ < o.col_; }

     private:
      const Relation* rel_ = nullptr;
      size_t row_ = 0;
      size_t col_ = 0;
    };

    iterator begin() const { return iterator(rel_, row_, 0); }
    iterator end() const { return iterator(rel_, row_, size()); }

    /// Materialize into a caller buffer of at least size() values.
    void CopyInto(Value* out) const {
      for (size_t c = 0; c < size(); ++c) out[c] = (*this)[c];
    }
    Key ToKey() const {
      Key k;
      k.reserve(size());
      for (size_t c = 0; c < size(); ++c) k.push_back((*this)[c]);
      return k;
    }

   private:
    const Relation* rel_;
    size_t row_;
  };

  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity), cols_(arity),
        col_stats_(arity) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  // One weight per row, so this also counts rows of zero-arity relations
  // (a column segment would not exist to count nullary facts from).
  size_t NumRows() const { return weights_.size(); }

  /// Append a tuple; `row.size()` must equal the arity.
  void AddRow(std::span<const Value> row, double weight) {
    ANYK_DCHECK(row.size() == arity_);
    for (size_t c = 0; c < arity_; ++c) {
      cols_[c].push_back(row[c]);
      col_stats_[c].min = std::min(col_stats_[c].min, row[c]);
      col_stats_[c].max = std::max(col_stats_[c].max, row[c]);
    }
    weights_.push_back(weight);
  }

  /// Append a row read through another relation's RowRef (copying between
  /// relations without materializing an intermediate key).
  void AddRow(RowRef row, double weight) {
    ANYK_DCHECK(row.size() == arity_);
    for (size_t c = 0; c < arity_; ++c) {
      const Value v = row[c];
      cols_[c].push_back(v);
      col_stats_[c].min = std::min(col_stats_[c].min, v);
      col_stats_[c].max = std::max(col_stats_[c].max, v);
    }
    weights_.push_back(weight);
  }

  /// Convenience overload for literals: rel.Add({1, 2}, 3.5).
  void Add(std::initializer_list<Value> row, double weight) {
    AddRow(std::span<const Value>(row.begin(), row.size()), weight);
  }

  /// Bulk append of `rows` tuples staged column-major: `col_data[c]` points
  /// at `rows` contiguous values of column c. This is the CSV loader's
  /// per-shard append path — one memcpy-shaped insert per column segment
  /// instead of `rows * arity` single-element pushes.
  void AppendColumnChunk(std::span<const Value* const> col_data,
                         std::span<const double> row_weights) {
    const size_t rows = row_weights.size();
    weights_.insert(weights_.end(), row_weights.begin(), row_weights.end());
    // A zero-row chunk (empty shard flush) may legally pass no column
    // pointers at all; col_data must not be touched then. Zero-arity
    // relations take the weights as facts and are done.
    if (rows == 0 || arity_ == 0) return;
    ANYK_DCHECK(col_data.size() == arity_);
    for (size_t c = 0; c < arity_; ++c) {
      cols_[c].insert(cols_[c].end(), col_data[c], col_data[c] + rows);
      for (size_t r = 0; r < rows; ++r) {
        col_stats_[c].min = std::min(col_stats_[c].min, col_data[c][r]);
        col_stats_[c].max = std::max(col_stats_[c].max, col_data[c][r]);
      }
    }
  }

  /// Read access to row `r` as a gathering proxy (see RowRef).
  RowRef Row(size_t r) const { return RowRef(this, r); }

  Value At(size_t r, size_t c) const {
    ANYK_DCHECK(c < arity_);
    return cols_[c][r];
  }

  /// The contiguous segment of column `c` (empty view for 0-row relations).
  ColumnView Column(size_t c) const {
    ANYK_DCHECK(c < arity_);
    return ColumnView(cols_[c]);
  }

  /// Raw segment pointer of column `c` for the batched key fills and binds.
  /// May be null when the column has no rows; callers then read nothing.
  const Value* ColumnData(size_t c) const {
    ANYK_DCHECK(c < arity_);
    return cols_[c].data();
  }

  /// Append-maintained min/max of column `c` (see ColumnStats).
  const ColumnStats& ColumnStatsOf(size_t c) const {
    ANYK_DCHECK(c < arity_);
    return col_stats_[c];
  }

  double Weight(size_t r) const { return weights_[r]; }
  void SetWeight(size_t r, double w) { weights_[r] = w; }
  /// The contiguous weight segment (one double per row).
  std::span<const double> Weights() const { return weights_; }

  /// Project row `r` onto the given columns (materializes a key).
  Key ProjectRow(size_t r, std::span<const uint32_t> cols) const {
    Key key;
    key.reserve(cols.size());
    for (uint32_t c : cols) key.push_back(At(r, c));
    return key;
  }

  void Reserve(size_t rows) {
    for (auto& col : cols_) col.reserve(rows);
    weights_.reserve(rows);
  }

  void Clear() {
    for (auto& col : cols_) col.clear();
    col_stats_.assign(arity_, ColumnStats{});
    weights_.clear();
  }

 private:
  std::string name_;
  size_t arity_ = 0;
  std::vector<std::vector<Value>> cols_;  // arity_ segments, NumRows() each
  std::vector<ColumnStats> col_stats_;    // per-column min/max, append-time
  std::vector<double> weights_;           // one per row
};

}  // namespace anyk

#endif  // ANYK_STORAGE_RELATION_H_
