// drai/ndarray/dtype.hpp
//
// Element types for NDArray and on-disk datasets. Scientific pipelines care
// about precision explicitly (§2.2 of the paper: 32/64-bit floats for
// physical realism, 16-bit only where the error budget allows), so dtype is
// a first-class runtime value, and fp16 conversion is implemented in
// software (IEEE 754 binary16, round-to-nearest-even).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace drai {

enum class DType : uint8_t {
  kF16 = 0,
  kF32 = 1,
  kF64 = 2,
  kI8 = 3,
  kI16 = 4,
  kI32 = 5,
  kI64 = 6,
  kU8 = 7,
};

/// Bytes per element.
size_t DTypeSize(DType t);

/// "f32", "i64", ...
std::string_view DTypeName(DType t);

/// Parse "f32" etc. Returns kInvalidArgument on unknown names.
Result<DType> ParseDType(std::string_view name);

/// True for kF16/kF32/kF64.
bool IsFloating(DType t);

/// IEEE 754 binary16 conversions. Round-to-nearest-even on narrowing;
/// preserves inf/nan; flushes values below the subnormal range to ±0.
uint16_t FloatToHalf(float f);
float HalfToFloat(uint16_t h);

/// Storage type of one kF16 element: the raw IEEE binary16 bits. Typed
/// kernels read it through ToDouble and write it through FromDouble<Half>.
struct Half {
  uint16_t bits;
};

/// Compile-time mapping from C++ type to DType.
template <typename T> struct DTypeOf;
template <> struct DTypeOf<Half>    { static constexpr DType value = DType::kF16; };
template <> struct DTypeOf<float>   { static constexpr DType value = DType::kF32; };
template <> struct DTypeOf<double>  { static constexpr DType value = DType::kF64; };
template <> struct DTypeOf<int8_t>  { static constexpr DType value = DType::kI8;  };
template <> struct DTypeOf<int16_t> { static constexpr DType value = DType::kI16; };
template <> struct DTypeOf<int32_t> { static constexpr DType value = DType::kI32; };
template <> struct DTypeOf<int64_t> { static constexpr DType value = DType::kI64; };
template <> struct DTypeOf<uint8_t> { static constexpr DType value = DType::kU8;  };

/// Element conversions of the typed kernels. They are exactly those of
/// NDArray::GetAsDouble / SetFromDouble (f16 through HalfToFloat /
/// FloatToHalf), so a typed loop writes the same bytes as a per-element one.
template <typename T>
double ToDouble(T v) {
  return static_cast<double>(v);
}
template <>
inline double ToDouble(Half v) {
  return HalfToFloat(v.bits);
}
template <typename T>
T FromDouble(double v) {
  return static_cast<T>(v);
}
template <>
inline Half FromDouble<Half>(double v) {
  return Half{FloatToHalf(static_cast<float>(v))};
}

/// Call `fn(T{})` with the storage type T of `t`: one dtype switch per
/// array, then a loop the compiler specializes per type.
template <typename Fn>
decltype(auto) VisitDType(DType t, Fn&& fn) {
  switch (t) {
    case DType::kF16: return fn(Half{});
    case DType::kF32: return fn(float{});
    case DType::kF64: return fn(double{});
    case DType::kI8: return fn(int8_t{});
    case DType::kI16: return fn(int16_t{});
    case DType::kI32: return fn(int32_t{});
    case DType::kI64: return fn(int64_t{});
    case DType::kU8: return fn(uint8_t{});
  }
  throw std::logic_error("unreachable dtype");
}

}  // namespace drai
