#include "ndarray/ndarray.hpp"

#include <algorithm>
#include <stdexcept>

namespace drai {

size_t ShapeNumel(const Shape& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

namespace {
std::vector<int64_t> ContiguousStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t s = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    strides[i] = s;
    s *= static_cast<int64_t>(shape[i]);
  }
  return strides;
}
}  // namespace

NDArray::NDArray()
    : storage_(std::make_shared<std::vector<std::byte>>()),
      shape_{0},
      strides_{1},
      dtype_(DType::kF32) {}

NDArray::NDArray(std::shared_ptr<std::vector<std::byte>> storage,
                 size_t offset_bytes, Shape shape,
                 std::vector<int64_t> strides, DType dtype)
    : storage_(std::move(storage)),
      offset_bytes_(offset_bytes),
      shape_(std::move(shape)),
      strides_(std::move(strides)),
      dtype_(dtype) {}

NDArray NDArray::Zeros(Shape shape, DType dtype) {
  const size_t bytes = ShapeNumel(shape) * DTypeSize(dtype);
  auto storage = std::make_shared<std::vector<std::byte>>(bytes, std::byte{0});
  auto strides = ContiguousStrides(shape);
  return NDArray(std::move(storage), 0, std::move(shape), std::move(strides),
                 dtype);
}

NDArray NDArray::Full(Shape shape, double value, DType dtype) {
  NDArray a = Zeros(std::move(shape), dtype);
  a.Fill(value);
  return a;
}

bool NDArray::IsContiguous() const {
  return strides_ == ContiguousStrides(shape_);
}

void NDArray::CheckIndex(std::span<const size_t> idx) const {
  if (idx.size() != shape_.size()) {
    throw std::out_of_range("NDArray index rank mismatch");
  }
  for (size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= shape_[i]) {
      throw std::out_of_range("NDArray index out of bounds");
    }
  }
}

size_t NDArray::IndexToOffsetElems(std::span<const size_t> idx) const {
  int64_t off = 0;
  for (size_t i = 0; i < idx.size(); ++i) {
    off += static_cast<int64_t>(idx[i]) * strides_[i];
  }
  return static_cast<size_t>(off);
}

size_t NDArray::FlatToOffsetElems(size_t flat) const {
  // Decompose the flat logical index into per-dim indices (row-major) and
  // apply strides. Works for any view.
  int64_t off = 0;
  for (size_t i = shape_.size(); i-- > 0;) {
    const size_t dim = shape_[i];
    if (dim == 0) return 0;
    off += static_cast<int64_t>(flat % dim) * strides_[i];
    flat /= dim;
  }
  return static_cast<size_t>(off);
}

template <typename Fn>
void NDArray::ForEachOffset(Fn&& fn) const {
  if (numel() == 0) return;
  if (shape_.empty()) {
    fn(int64_t{0});
    return;
  }
  // Innermost dim as a strided run; an odometer over the outer dims moves
  // the run's first offset by one stride per step.
  const size_t len = shape_.back();
  const int64_t step = strides_.back();
  std::vector<size_t> idx(shape_.size() - 1, 0);
  int64_t row = 0;
  for (;;) {
    for (size_t k = 0; k < len; ++k) fn(row + step * static_cast<int64_t>(k));
    size_t d = idx.size();
    for (;;) {
      if (d == 0) return;
      --d;
      if (++idx[d] < shape_[d]) {
        row += strides_[d];
        break;
      }
      row -= strides_[d] * static_cast<int64_t>(shape_[d] - 1);
      idx[d] = 0;
    }
  }
}

void NDArray::CopyElements(const NDArray& view, std::byte* dense,
                           bool gather) {
  const size_t esize = DTypeSize(view.dtype_);
  std::byte* base = view.BasePtr();
  view.ForEachOffset([&](int64_t off) {
    std::byte* elem = base + static_cast<size_t>(off) * esize;
    if (gather) {
      std::memcpy(dense, elem, esize);
    } else {
      std::memcpy(elem, dense, esize);
    }
    dense += esize;
  });
}

std::span<const std::byte> NDArray::raw_bytes() const {
  if (!IsContiguous()) {
    throw std::logic_error("raw_bytes on non-contiguous view");
  }
  return {BasePtr(), nbytes()};
}

std::span<std::byte> NDArray::raw_bytes_mut() {
  if (!IsContiguous()) {
    throw std::logic_error("raw_bytes_mut on non-contiguous view");
  }
  return {BasePtr(), nbytes()};
}

double NDArray::GetAsDouble(size_t flat_index) const {
  if (flat_index >= numel()) {
    throw std::out_of_range("GetAsDouble index out of range");
  }
  const std::byte* p =
      BasePtr() + FlatToOffsetElems(flat_index) * DTypeSize(dtype_);
  return VisitDType(dtype_, [p](auto tag) {
    decltype(tag) v{};
    std::memcpy(&v, p, sizeof(v));
    return ToDouble(v);
  });
}

void NDArray::SetFromDouble(size_t flat_index, double value) {
  if (flat_index >= numel()) {
    throw std::out_of_range("SetFromDouble index out of range");
  }
  std::byte* p = BasePtr() + FlatToOffsetElems(flat_index) * DTypeSize(dtype_);
  VisitDType(dtype_, [p, value](auto tag) {
    const auto v = FromDouble<decltype(tag)>(value);
    std::memcpy(p, &v, sizeof(v));
  });
}

NDArray NDArray::Slice(size_t dim, size_t start, size_t stop) const {
  if (dim >= rank()) throw std::out_of_range("Slice: dim out of range");
  if (start > stop || stop > shape_[dim]) {
    throw std::out_of_range("Slice: bad range");
  }
  Shape new_shape = shape_;
  new_shape[dim] = stop - start;
  const size_t new_offset =
      offset_bytes_ + static_cast<size_t>(strides_[dim]) * start *
                          DTypeSize(dtype_);
  return NDArray(storage_, new_offset, std::move(new_shape), strides_, dtype_);
}

NDArray NDArray::Transpose() const {
  if (rank() < 2) throw std::logic_error("Transpose needs rank >= 2");
  return Transpose(rank() - 2, rank() - 1);
}

NDArray NDArray::Transpose(size_t a, size_t b) const {
  if (a >= rank() || b >= rank()) {
    throw std::out_of_range("Transpose: dim out of range");
  }
  Shape new_shape = shape_;
  std::vector<int64_t> new_strides = strides_;
  std::swap(new_shape[a], new_shape[b]);
  std::swap(new_strides[a], new_strides[b]);
  return NDArray(storage_, offset_bytes_, std::move(new_shape),
                 std::move(new_strides), dtype_);
}

NDArray NDArray::Permute(std::span<const size_t> perm) const {
  if (perm.size() != rank()) throw std::invalid_argument("Permute: bad rank");
  std::vector<bool> seen(rank(), false);
  Shape new_shape(rank());
  std::vector<int64_t> new_strides(rank());
  for (size_t i = 0; i < rank(); ++i) {
    if (perm[i] >= rank() || seen[perm[i]]) {
      throw std::invalid_argument("Permute: not a permutation");
    }
    seen[perm[i]] = true;
    new_shape[i] = shape_[perm[i]];
    new_strides[i] = strides_[perm[i]];
  }
  return NDArray(storage_, offset_bytes_, std::move(new_shape),
                 std::move(new_strides), dtype_);
}

NDArray NDArray::Reshape(Shape new_shape) const {
  if (ShapeNumel(new_shape) != numel()) {
    throw std::invalid_argument("Reshape: numel mismatch");
  }
  if (!IsContiguous()) {
    throw std::logic_error("Reshape requires a contiguous array");
  }
  auto strides = ContiguousStrides(new_shape);
  return NDArray(storage_, offset_bytes_, std::move(new_shape),
                 std::move(strides), dtype_);
}

NDArray NDArray::AsContiguous() const {
  // Always a fresh copy, so the result owns its storage (documented copy).
  NDArray out = Zeros(shape_, dtype_);
  if (IsContiguous()) {
    // An empty array's buffers may be null, and memcpy forbids null even
    // for zero bytes.
    if (nbytes() != 0) std::memcpy(out.BasePtr(), BasePtr(), nbytes());
  } else {
    CopyElements(*this, out.BasePtr(), /*gather=*/true);
  }
  return out;
}

NDArray NDArray::Cast(DType target) const {
  if (target == dtype_) return AsContiguous();
  const NDArray in = IsContiguous() ? *this : AsContiguous();
  NDArray out = Zeros(shape_, target);
  VisitDType(dtype_, [&](auto from) {
    const auto src = in.span<decltype(from)>();
    VisitDType(target, [&](auto to) {
      using To = decltype(to);
      const auto dst = out.span<To>();
      for (size_t i = 0; i < src.size(); ++i) {
        dst[i] = FromDouble<To>(ToDouble(src[i]));
      }
    });
  });
  return out;
}

void NDArray::CopyFrom(const NDArray& src) {
  if (src.shape() != shape_) {
    throw std::invalid_argument("CopyFrom: shape mismatch");
  }
  if (src.dtype() != dtype_) {
    throw std::invalid_argument("CopyFrom: dtype mismatch");
  }
  const NDArray in = src.IsContiguous() ? src : src.AsContiguous();
  if (IsContiguous()) {
    // memmove: `src` may be a view of this very storage.
    std::memmove(BasePtr(), in.BasePtr(), nbytes());
  } else {
    CopyElements(*this, in.BasePtr(), /*gather=*/false);
  }
}

void NDArray::Fill(double value) {
  VisitDType(dtype_, [&](auto tag) {
    using T = decltype(tag);
    const T v = FromDouble<T>(value);
    T* base = reinterpret_cast<T*>(BasePtr());
    ForEachOffset([&](int64_t off) { base[off] = v; });
  });
}

}  // namespace drai
