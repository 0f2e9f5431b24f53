// drai/codec/quantize.hpp
//
// Precision reduction with explicit error accounting (§2.2 of the paper:
// scientific data demands 32/64-bit precision; anything narrower must be
// justified by a measured error budget).
//
// Two families:
//  * Float narrowing: f64 -> f32 -> f16 (IEEE), reported with max/RMS error.
//  * Linear integer packing: GRIB-style scale/offset quantization of a float
//    field into n-bit integers (n in {8, 16}), used by the grib container.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "ndarray/ndarray.hpp"

namespace drai::codec {

/// Error metrics of a lossy round trip.
struct QuantError {
  double max_abs = 0;
  double rms = 0;
  /// max_abs / (max - min of the original); scale-free comparability.
  double relative_to_range = 0;
};

/// Narrow a float array to `target` dtype and back to its original dtype,
/// returning the round-tripped array and error metrics.
struct NarrowResult {
  NDArray round_tripped;
  QuantError error;
};
NarrowResult NarrowRoundTrip(const NDArray& input, DType target);

/// GRIB-style linear packing parameters: value = offset + scale * q.
struct LinearPack {
  double offset = 0;
  double scale = 1;
  uint8_t bits = 16;                 ///< 8 or 16
  std::vector<uint8_t> packed8;      ///< used when bits == 8
  std::vector<uint16_t> packed16;    ///< used when bits == 16
  size_t count = 0;
  /// Round-trip error against the packed input, measured in the packing
  /// pass itself (equal to MeasureLinearError(input, pack), field by field).
  QuantError error;
};

/// Pack doubles into `bits`-bit integers spanning [min, max] of the finite
/// data: q = round(clamp((v - offset) / scale, 0, 2^bits - 1)), with
/// offset = min. Non-finite values are encoded as the max quantum; callers
/// that must tell them apart keep their own mask (grib-lite's bitmap).
/// `offset` is written to the wire, so its sign is fixed: when the minimum
/// is a zero and both -0.0 and +0.0 occur, offset is the one that comes
/// first in input order. `pack.error` comes from the same pass; no
/// dequantized copy is built. A finite range wider than DBL_MAX
/// (hi - lo overflows) is InvalidArgument.
Result<LinearPack> LinearQuantize(std::span<const double> values, uint8_t bits);

/// Reconstruct the (lossy) values.
std::vector<double> LinearDequantize(const LinearPack& pack);

/// Error of a LinearQuantize round trip of `values` (non-finite values are
/// skipped), dequantizing each quantum in place.
QuantError MeasureLinearError(std::span<const double> values,
                              const LinearPack& pack);

}  // namespace drai::codec
