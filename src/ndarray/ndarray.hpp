// drai/ndarray/ndarray.hpp
//
// NDArray: an n-dimensional, runtime-typed tensor with shared storage and
// strided views. It is the in-memory currency of every pipeline stage —
// climate fields (time, var, lat, lon), fusion windows (window, channel,
// sample), one-hot sequence tiles, graph feature matrices.
//
// Semantics follow NumPy: Slice/Transpose return views sharing storage;
// Reshape requires contiguity; Cast/AsContiguous copy. Element access is
// checked in at<T>(); kernels take a whole contiguous array as span<T>()
// and loop over it once per dtype (see ndarray/kernels.hpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ndarray/dtype.hpp"

namespace drai {

using Shape = std::vector<size_t>;

/// Number of elements of a shape (empty shape = scalar = 1 element).
size_t ShapeNumel(const Shape& shape);
/// "[4, 128, 256]"
std::string ShapeToString(const Shape& shape);

class NDArray {
 public:
  /// Empty (rank-0, zero elements) array of f32 — a moved-from-safe state.
  NDArray();

  /// Uninitialized array (storage is zero-filled for determinism).
  static NDArray Zeros(Shape shape, DType dtype = DType::kF32);
  /// All elements set to `value` (converted to dtype).
  static NDArray Full(Shape shape, double value, DType dtype = DType::kF32);
  /// Copy data from a typed vector; numel must match the shape.
  template <typename T>
  static NDArray FromVector(Shape shape, const std::vector<T>& data);
  /// 1-D convenience.
  template <typename T>
  static NDArray FromVector(const std::vector<T>& data) {
    return FromVector<T>({data.size()}, data);
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] const std::vector<int64_t>& strides() const { return strides_; }
  [[nodiscard]] size_t rank() const { return shape_.size(); }
  [[nodiscard]] size_t numel() const { return ShapeNumel(shape_); }
  [[nodiscard]] DType dtype() const { return dtype_; }
  [[nodiscard]] size_t nbytes() const { return numel() * DTypeSize(dtype_); }
  [[nodiscard]] bool IsContiguous() const;

  /// Checked, strided element access. T must match dtype exactly.
  template <typename T>
  T& at(std::span<const size_t> idx);
  template <typename T>
  const T& at(std::span<const size_t> idx) const;
  template <typename T>
  T& at(std::initializer_list<size_t> idx) {
    return at<T>(std::span<const size_t>(idx.begin(), idx.size()));
  }
  template <typename T>
  const T& at(std::initializer_list<size_t> idx) const {
    return at<T>(std::span<const size_t>(idx.begin(), idx.size()));
  }

  /// Raw typed pointer to the first element of this view. Only valid for
  /// kernels that honor strides, or on contiguous arrays.
  template <typename T>
  T* data();
  template <typename T>
  const T* data() const;

  /// The elements of a contiguous array as a typed span, in row-major
  /// order. Throws std::invalid_argument on a dtype mismatch and
  /// std::logic_error on a non-contiguous view (take AsContiguous() first).
  /// The access path for kernels: dispatch on dtype once (VisitDType), then
  /// loop over the span with ToDouble / FromDouble<T>.
  template <typename T>
  std::span<T> span();
  template <typename T>
  std::span<const T> span() const;

  /// Untyped view of the storage bytes (contiguous arrays only).
  [[nodiscard]] std::span<const std::byte> raw_bytes() const;
  [[nodiscard]] std::span<std::byte> raw_bytes_mut();

  /// Read element i (flattened, respecting strides) as double, regardless
  /// of dtype. One element per call, with a dtype switch and a div/mod per
  /// dimension: for generic and test code, never for a kernel's inner loop.
  [[nodiscard]] double GetAsDouble(size_t flat_index) const;
  /// Write element i from a double (converted to dtype).
  void SetFromDouble(size_t flat_index, double value);

  /// View of a sub-range along `dim`: [start, stop) with step 1.
  [[nodiscard]] NDArray Slice(size_t dim, size_t start, size_t stop) const;
  /// View with two dims swapped (default: last two).
  [[nodiscard]] NDArray Transpose() const;
  [[nodiscard]] NDArray Transpose(size_t a, size_t b) const;
  /// View with dims reordered by `perm` (a permutation of 0..rank-1).
  [[nodiscard]] NDArray Permute(std::span<const size_t> perm) const;
  /// New shape over the same storage; requires contiguity & equal numel.
  [[nodiscard]] NDArray Reshape(Shape new_shape) const;
  /// Deep copy, contiguous, same dtype.
  [[nodiscard]] NDArray AsContiguous() const;
  /// Deep copy converted to `target` dtype (via double; fp16 through the
  /// software converter).
  [[nodiscard]] NDArray Cast(DType target) const;

  /// Copy `src` into this view elementwise (shapes must match; dtypes must
  /// match). Used to fill slices.
  void CopyFrom(const NDArray& src);

  /// Scalar fill of this view.
  void Fill(double value);

 private:
  NDArray(std::shared_ptr<std::vector<std::byte>> storage, size_t offset_bytes,
          Shape shape, std::vector<int64_t> strides, DType dtype);

  [[nodiscard]] size_t FlatToOffsetElems(size_t flat) const;
  /// Calls fn(offset) with the element offset of every element of this
  /// view, in row-major order, without a div/mod per element.
  template <typename Fn>
  void ForEachOffset(Fn&& fn) const;
  /// Copies the elements of `view` into (gather) or out of (scatter) the
  /// dense row-major buffer `dense`.
  static void CopyElements(const NDArray& view, std::byte* dense, bool gather);
  [[nodiscard]] std::byte* BasePtr() const {
    return storage_->data() + offset_bytes_;
  }
  void CheckIndex(std::span<const size_t> idx) const;
  [[nodiscard]] size_t IndexToOffsetElems(std::span<const size_t> idx) const;

  std::shared_ptr<std::vector<std::byte>> storage_;
  size_t offset_bytes_ = 0;
  Shape shape_;
  std::vector<int64_t> strides_;  ///< in elements, per dim
  DType dtype_ = DType::kF32;
};

// ---- template definitions ------------------------------------------------

template <typename T>
NDArray NDArray::FromVector(Shape shape, const std::vector<T>& data) {
  if (ShapeNumel(shape) != data.size()) {
    throw std::invalid_argument("FromVector: numel mismatch");
  }
  NDArray a = Zeros(std::move(shape), DTypeOf<T>::value);
  std::memcpy(a.BasePtr(), data.data(), data.size() * sizeof(T));
  return a;
}

template <typename T>
T& NDArray::at(std::span<const size_t> idx) {
  if (DTypeOf<T>::value != dtype_) {
    throw std::invalid_argument("at<T>: dtype mismatch");
  }
  CheckIndex(idx);
  return *(reinterpret_cast<T*>(BasePtr()) + IndexToOffsetElems(idx));
}

template <typename T>
const T& NDArray::at(std::span<const size_t> idx) const {
  if (DTypeOf<T>::value != dtype_) {
    throw std::invalid_argument("at<T>: dtype mismatch");
  }
  CheckIndex(idx);
  return *(reinterpret_cast<const T*>(BasePtr()) + IndexToOffsetElems(idx));
}

template <typename T>
std::span<T> NDArray::span() {
  if (DTypeOf<T>::value != dtype_) {
    throw std::invalid_argument("span<T>: dtype mismatch");
  }
  if (!IsContiguous()) throw std::logic_error("span<T> on non-contiguous view");
  return {reinterpret_cast<T*>(BasePtr()), numel()};
}

template <typename T>
std::span<const T> NDArray::span() const {
  if (DTypeOf<T>::value != dtype_) {
    throw std::invalid_argument("span<T>: dtype mismatch");
  }
  if (!IsContiguous()) throw std::logic_error("span<T> on non-contiguous view");
  return {reinterpret_cast<const T*>(BasePtr()), numel()};
}

template <typename T>
T* NDArray::data() {
  if (DTypeOf<T>::value != dtype_) {
    throw std::invalid_argument("data<T>: dtype mismatch");
  }
  return reinterpret_cast<T*>(BasePtr());
}

template <typename T>
const T* NDArray::data() const {
  if (DTypeOf<T>::value != dtype_) {
    throw std::invalid_argument("data<T>: dtype mismatch");
  }
  return reinterpret_cast<const T*>(BasePtr());
}

}  // namespace drai
