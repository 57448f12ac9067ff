#include "adapters/enumerable/columnar_agg.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "exec/simd.h"

namespace calcite {

namespace {
constexpr size_t kInitialHashSlots = 64;  // power of two

// Rows hashed per HashColumn block: large enough to amortize the kernel
// dispatch, small enough that the 8-byte-per-row hash scratch (32 KiB)
// stays cache-resident instead of evicting the key/argument columns on
// oversized batches.
constexpr size_t kHashBlockRows = 4096;

// `col` shifted forward by `base` rows (pointer-advance view; the result
// must not outlive `col`'s storage).
ColumnVector ShiftColumn(const ColumnVector& col, size_t base) {
  ColumnVector v = col;
  if (v.i64 != nullptr) v.i64 += base;
  if (v.f64 != nullptr) v.f64 += base;
  if (v.b8 != nullptr) v.b8 += base;
  if (v.str != nullptr) v.str += base;
  if (v.boxed != nullptr) v.boxed += base;
  if (v.nulls != nullptr) v.nulls += base;
  return v;
}

/// The bit image of one key cell. For NULL, int64, bool, double (every NaN
/// canonicalized) and string cells of up to 7 bytes, `bits` identifies the
/// value within `type`, so equal images are equal keys and a probe accepts
/// without touching the boxed group key. Other cells (longer strings,
/// composites) are inexact and always verify against the boxed key.
/// Unequal images prove nothing (Int(2) vs Double(2.0), +0.0 vs -0.0): the
/// cell then verifies too.
struct CellImage {
  uint64_t bits = 0;
  uint8_t type = 0;  // one of the k*Image tags below
};
constexpr uint8_t kInexactImage = 0;
constexpr uint8_t kNullImage = 1;
constexpr uint8_t kIntImage = 2;
constexpr uint8_t kDoubleImage = 3;
constexpr uint8_t kBoolImage = 4;
constexpr uint8_t kShortStringImage = 5;

/// A string of up to 7 bytes packs its bytes low and its length into the
/// top byte; longer strings are inexact.
CellImage StringImage(const char* data, size_t size) {
  if (size > 7) return {};
  uint64_t bits = static_cast<uint64_t>(size) << 56;
  for (size_t b = 0; b < size; ++b) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data[b])) << (8 * b);
  }
  return {bits, kShortStringImage};
}

CellImage ImageOf(const Value& v) {
  if (v.IsNull()) return {0, kNullImage};
  if (v.is_int()) return {static_cast<uint64_t>(v.AsInt()), kIntImage};
  if (v.is_double()) return {simd::F64Bits(v.AsDouble()), kDoubleImage};
  if (v.is_bool()) return {v.AsBool() ? 1u : 0u, kBoolImage};
  if (v.is_string()) {
    return StringImage(v.AsString().data(), v.AsString().size());
  }
  return {};
}

/// Column-at-a-time ImageOf: the images of the `n` cells of `col` named by
/// sel[0..n) (or rows 0..n-1 when `sel` is null) into bits/types[0..n).
void ImageColumn(const ColumnVector& col, const uint32_t* sel, size_t n,
                 uint64_t* bits, uint8_t* types) {
  auto row = [sel](size_t k) { return sel != nullptr ? sel[k] : k; };
  switch (col.type) {
    case PhysType::kInt64:
      for (size_t k = 0; k < n; ++k) {
        bits[k] = static_cast<uint64_t>(col.i64[row(k)]);
        types[k] = kIntImage;
      }
      break;
    case PhysType::kDouble:
      for (size_t k = 0; k < n; ++k) {
        bits[k] = simd::F64Bits(col.f64[row(k)]);
        types[k] = kDoubleImage;
      }
      break;
    case PhysType::kBool:
      for (size_t k = 0; k < n; ++k) {
        bits[k] = col.b8[row(k)] != 0 ? 1 : 0;
        types[k] = kBoolImage;
      }
      break;
    case PhysType::kString:
      for (size_t k = 0; k < n; ++k) {
        const StringRef& str = col.str[row(k)];
        const CellImage image = StringImage(str.data, str.size);
        bits[k] = image.bits;
        types[k] = image.type;
      }
      break;
    case PhysType::kValue:
      for (size_t k = 0; k < n; ++k) {
        const CellImage image = ImageOf(col.boxed[row(k)]);
        bits[k] = image.bits;
        types[k] = image.type;
      }
      return;  // boxed cells carry their own null state
  }
  if (col.nulls != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      if (col.nulls[row(k)] != 0) {
        bits[k] = 0;
        types[k] = kNullImage;
      }
    }
  }
}

bool SameImage(CellImage a, CellImage b) {
  return a.type != kInexactImage && a.type == b.type && a.bits == b.bits;
}

bool IsNaN(const Value& v) {
  return v.is_double() && v.AsDouble() != v.AsDouble();
}

/// Value equality of two boxed key cells. Two NaNs never reach here — their
/// canonical images already matched — and Value::Compare would call a NaN
/// equal to every number, so a NaN equals nothing here.
bool KeyValuesEqual(const Value& a, const Value& b) {
  return !IsNaN(a) && !IsNaN(b) && a == b;
}

/// True when cell `col[row]` equals the boxed key cell `v` under Value
/// equality (numeric cross-representation, string bytes).
bool CellMatches(const ColumnVector& col, size_t row, const Value& v) {
  if (col.IsNullAt(row)) return v.IsNull();
  switch (col.type) {
    case PhysType::kInt64: {
      // Mirrors Value::Compare: int-int exact, cross-representation as
      // double (so a raw 2 matches a group opened by Double(2.0)).
      const int64_t c = col.i64[row];
      if (v.is_int()) return v.AsInt() == c;
      return v.is_double() && v.AsDouble() == static_cast<double>(c);
    }
    case PhysType::kDouble:
      return v.is_numeric() && v.AsDouble() == col.f64[row];
    case PhysType::kString:
      return v.is_string() &&
             std::string_view(v.AsString()) == col.str[row].view();
    case PhysType::kBool:
      return v.is_bool() && v.AsBool() == (col.b8[row] != 0);
    case PhysType::kValue:
      return KeyValuesEqual(v, col.boxed[row]);
  }
  return false;
}

/// The key cells of one input row: physical row `row` of each key column,
/// whose images ImageColumn put at bits/types[c * stride].
struct ColumnCells {
  const std::vector<const ColumnVector*>& cols;
  size_t row;
  const uint64_t* bits;
  const uint8_t* types;
  size_t stride;

  CellImage Image(size_t c) const {
    return {bits[c * stride], types[c * stride]};
  }
  bool Matches(size_t c, const Value& v) const {
    return CellMatches(*cols[c], row, v);
  }
  Value Box(size_t c) const { return cols[c]->GetValue(row); }
};

/// The boxed key cells of another builder's group (MergeFrom).
struct ValueCells {
  const Value* values;

  CellImage Image(size_t c) const { return ImageOf(values[c]); }
  bool Matches(size_t c, const Value& v) const {
    return KeyValuesEqual(v, values[c]);
  }
  Value Box(size_t c) const { return values[c]; }
};

}  // namespace

std::unique_ptr<ColumnarAggBuilder> ColumnarAggBuilder::Create(
    const std::vector<int>& group_keys,
    const std::vector<AggregateCall>& calls) {
  return std::unique_ptr<ColumnarAggBuilder>(
      new ColumnarAggBuilder(group_keys, calls));
}

uint32_t ColumnarAggBuilder::NewGroup() {
  const uint32_t gid = static_cast<uint32_t>(num_groups_++);
  for (const AggregateCall& call : calls_) {
    accs_.emplace_back(call);
  }
  return gid;
}

// GroupMatches and InsertGroup stay out of line: inlined into ResolveKeys,
// they made the probe loop spill its locals on the hit path (measured on
// BM_KernelHashGroupResolve).
template <typename Cells>
[[gnu::noinline]] bool ColumnarAggBuilder::GroupMatches(
    uint32_t gid, const Cells& cells) const {
  const size_t num_keys = group_keys_.size();
  for (size_t c = 0; c < num_keys; ++c) {
    const size_t at = gid * num_keys + c;
    if (SameImage(cells.Image(c), CellImage{key_bits_[at], key_types_[at]})) {
      continue;
    }
    if (!cells.Matches(c, key_values_[at])) return false;
  }
  return true;
}

template <typename Cells>
[[gnu::noinline]] uint32_t ColumnarAggBuilder::InsertGroup(
    uint64_t hash, const Cells& cells, size_t slot) {
  const uint32_t gid = NewGroup();
  const size_t first = key_values_.size();
  for (size_t c = 0; c < group_keys_.size(); ++c) {
    const CellImage image = cells.Image(c);
    key_values_.push_back(cells.Box(c));
    key_bits_.push_back(image.bits);
    key_types_.push_back(image.type);
  }
  HashSlot& s = hash_slots_[slot];
  s.hash = hash;
  s.bits0 = key_bits_[first];
  s.type0 = key_types_[first];
  s.gid_plus_1 = gid + 1;
  if (++hash_count_ * 10 >= hash_slots_.size() * 7) RehashSlots();
  return gid;
}

template <typename CellsAt>
void ColumnarAggBuilder::ResolveKeys(size_t n, const uint64_t* hashes,
                                     const CellsAt& cells_at,
                                     uint32_t* gids) {
  const bool single_key = group_keys_.size() == 1;
  // Locals instead of member accesses keep the hit path — slot load, hash
  // compare, image accept — free of reloads; only a miss (InsertGroup,
  // which may grow the table) refreshes them.
  const HashSlot* slots = hash_slots_.data();
  size_t mask = hash_slots_.size() - 1;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t h = hashes[j];
    const CellImage image0 = cells_at(j).Image(0);
    // The common single-key case — the key's group sits in its home slot
    // and bit-matches — resolves here, clear of the calls below. (An empty
    // slot's image is inexact, so it never matches.)
    const HashSlot& home = slots[static_cast<size_t>(h) & mask];
    if (single_key && home.hash == h &&
        SameImage(image0, CellImage{home.bits0, home.type0})) {
      gids[j] = home.gid_plus_1 - 1;
      continue;
    }
    for (size_t slot = static_cast<size_t>(h) & mask;;
         slot = (slot + 1) & mask) {
      const HashSlot& s = slots[slot];
      if (s.gid_plus_1 == 0) {
        gids[j] = InsertGroup(h, cells_at(j), slot);
        slots = hash_slots_.data();
        mask = hash_slots_.size() - 1;
        break;
      }
      if (s.hash != h) continue;
      const uint32_t gid = s.gid_plus_1 - 1;
      if ((single_key && SameImage(image0, CellImage{s.bits0, s.type0})) ||
          GroupMatches(gid, cells_at(j))) {
        gids[j] = gid;
        break;
      }
    }
  }
}

void ColumnarAggBuilder::RehashSlots() {
  std::vector<HashSlot> old;
  old.swap(hash_slots_);
  hash_slots_.resize(old.size() * 2);
  const size_t mask = hash_slots_.size() - 1;
  for (const HashSlot& s : old) {
    if (s.gid_plus_1 == 0) continue;
    size_t slot = static_cast<size_t>(s.hash) & mask;
    while (hash_slots_[slot].gid_plus_1 != 0) slot = (slot + 1) & mask;
    hash_slots_[slot] = s;
  }
}

void ColumnarAggBuilder::PrepareKeys(const ColumnBatch& batch, size_t base,
                                     size_t n) {
  const uint32_t* sel = batch.has_sel ? batch.sel.data() + base : nullptr;
  const size_t num_keys = key_cols_.size();
  hashes_.resize(n);
  col_hashes_.resize(n);
  cell_bits_.resize(num_keys * n);
  cell_types_.resize(num_keys * n);
  for (size_t c = 0; c < num_keys; ++c) {
    const ColumnVector col =
        sel != nullptr ? *key_cols_[c] : ShiftColumn(*key_cols_[c], base);
    ImageColumn(col, sel, n, &cell_bits_[c * n], &cell_types_[c * n]);
    if (num_keys == 1) {
      HashColumn(col, sel, n, hashes_.data());
      return;
    }
    HashColumn(col, sel, n, col_hashes_.data());
    for (size_t j = 0; j < n; ++j) {
      hashes_[j] = FoldKeyHash(c == 0 ? kKeyHashSeed : hashes_[j],
                               col_hashes_[j]);
    }
  }
}

void ColumnarAggBuilder::ResolveGroups(const ColumnBatch& batch) {
  const size_t active = batch.ActiveCount();
  gids_.resize(active);
  if (group_keys_.empty()) {
    if (num_groups_ == 0) NewGroup();
    std::fill(gids_.begin(), gids_.end(), 0);
    return;
  }
  key_cols_.clear();
  for (int k : group_keys_) {
    key_cols_.push_back(&batch.cols[static_cast<size_t>(k)]);
  }
  if (hash_slots_.empty()) hash_slots_.resize(kInitialHashSlots);
  // Blocked hashing: hash and image kHashBlockRows keys column-at-a-time,
  // then resolve those rows, and repeat. The block bound keeps the scratch
  // cache-resident even when a batch is far larger than the usual 1024
  // rows.
  const uint32_t* sel = batch.has_sel ? batch.sel.data() : nullptr;
  for (size_t base = 0; base < active; base += kHashBlockRows) {
    const size_t block = std::min(kHashBlockRows, active - base);
    PrepareKeys(batch, base, block);
    const uint64_t* bits = cell_bits_.data();
    const uint8_t* types = cell_types_.data();
    const std::vector<const ColumnVector*>& cols = key_cols_;
    ResolveKeys(
        block, hashes_.data(),
        [&cols, sel, base, bits, types, block](size_t j) {
          const size_t row = sel != nullptr ? sel[base + j] : base + j;
          return ColumnCells{cols, row, bits + j, types + j, block};
        },
        gids_.data() + base);
  }
}

Status ColumnarAggBuilder::FeedCall(const ColumnBatch& batch,
                                    size_t call_idx) {
  const AggregateCall& call = calls_[call_idx];
  const size_t stride = calls_.size();
  const size_t active = batch.ActiveCount();

  if (call.kind == AggKind::kCountStar) {
    if (group_keys_.empty()) {
      accs_[call_idx].AddCountStarN(static_cast<int64_t>(active));
    } else {
      for (size_t k = 0; k < active; ++k) {
        accs_[gids_[k] * stride + call_idx].AddCountStarN(1);
      }
    }
    return Status::OK();
  }
  if (call.args.empty()) {
    return Status::RuntimeError("aggregate " + call.ToString() +
                                " has no argument");
  }
  const int arg = call.args[0];
  if (arg < 0 || static_cast<size_t>(arg) >= batch.cols.size()) {
    return Status::RuntimeError("aggregate argument $" + std::to_string(arg) +
                                " out of range");
  }
  const ColumnVector& col = batch.cols[static_cast<size_t>(arg)];
  auto acc = [&](size_t k) -> AggAccumulator& {
    return accs_[gids_[k] * stride + call_idx];
  };

  // DISTINCT dedups on the boxed value, so it always takes the boxed path.
  if (call.distinct || col.type == PhysType::kValue) {
    for (size_t k = 0; k < active; ++k) {
      const size_t i = batch.ActiveIndex(k);
      if (col.IsNullAt(i)) continue;  // SQL aggregates ignore NULLs.
      CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullValue(col.GetValue(i)));
    }
    return Status::OK();
  }
  switch (col.type) {
    case PhysType::kInt64:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullInt64(col.i64[i]));
      }
      return Status::OK();
    case PhysType::kDouble:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullDouble(col.f64[i]));
      }
      return Status::OK();
    case PhysType::kString:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(acc(k).AddNonNullStringView(col.str[i].view()));
      }
      return Status::OK();
    case PhysType::kBool:
      for (size_t k = 0; k < active; ++k) {
        const size_t i = batch.ActiveIndex(k);
        if (col.nulls != nullptr && col.nulls[i] != 0) continue;
        CALCITE_RETURN_IF_ERROR(
            acc(k).AddNonNullValue(Value::Bool(col.b8[i] != 0)));
      }
      return Status::OK();
    case PhysType::kValue:
      break;  // handled above
  }
  return Status::OK();
}

Status ColumnarAggBuilder::Feed(const ColumnBatch& batch) {
  ResolveGroups(batch);
  for (size_t j = 0; j < calls_.size(); ++j) {
    CALCITE_RETURN_IF_ERROR(FeedCall(batch, j));
  }
  return Status::OK();
}

Status ColumnarAggBuilder::MergeFrom(const ColumnarAggBuilder& other) {
  const size_t num_keys = group_keys_.size();
  const size_t stride = calls_.size();
  const size_t n = other.num_groups_;
  // Resolve the other builder's groups here, probing with HashRowKey64 of
  // its boxed keys.
  std::vector<uint32_t> gids(n, 0);
  if (num_keys == 0) {
    if (n > 0 && num_groups_ == 0) NewGroup();
  } else {
    if (hash_slots_.empty()) hash_slots_.resize(kInitialHashSlots);
    std::vector<uint64_t> hashes(n);
    for (size_t og = 0; og < n; ++og) {
      const Value* key = &other.key_values_[og * num_keys];
      hashes[og] = HashRowKey64(Row(key, key + num_keys));
    }
    ResolveKeys(
        n, hashes.data(),
        [&](size_t og) {
          return ValueCells{&other.key_values_[og * num_keys]};
        },
        gids.data());
  }
  for (size_t og = 0; og < n; ++og) {
    for (size_t j = 0; j < stride; ++j) {
      CALCITE_RETURN_IF_ERROR(accs_[gids[og] * stride + j].MergeFrom(
          other.accs_[og * stride + j]));
    }
  }
  return Status::OK();
}

RowBatch ColumnarAggBuilder::EmitBatch(size_t batch_size) {
  if (!finalized_) {
    // Global aggregate over empty input still produces one row.
    if (group_keys_.empty() && num_groups_ == 0) NewGroup();
    finalized_ = true;
  }
  const size_t num_keys = group_keys_.size();
  const size_t stride = calls_.size();
  RowBatch out;
  while (emit_pos_ < num_groups_ && out.size() < batch_size) {
    const size_t g = emit_pos_++;
    Row result;
    result.reserve(num_keys + stride);
    for (size_t c = 0; c < num_keys; ++c) {
      result.push_back(std::move(key_values_[g * num_keys + c]));
    }
    for (size_t j = 0; j < stride; ++j) {
      result.push_back(accs_[g * stride + j].Finish());
    }
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace calcite
