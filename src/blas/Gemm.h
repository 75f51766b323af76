//===-- blas/Gemm.h - Dense matrix multiply kernels -------------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense double-precision GEMM kernels. The paper's computation kernels are
/// built on BLAS GEMM (Fig. 1(b): Ci += A(b) x B(b)); since no vendor BLAS
/// is assumed, two implementations are provided:
///
///  - gemmNaive: straightforward triple loop, the stand-in for the
///    reference Netlib BLAS whose speed function Fig. 2 plots;
///  - gemmBlocked: cache-tiled variant, the stand-in for an optimised BLAS;
///  - gemmMicro: register-blocked micro-kernel (packed B panels, register
///    tiles of C) dispatched at runtime between three tiles: an AVX-512
///    8x16 tile and an AVX2 4x8 tile (both compiled in every x86
///    GCC/Clang build) and a portable `#pragma omp simd` 4x8 tile — the
///    stand-in for a tuned vendor BLAS;
///  - gemmParallel: gemmBlocked (or gemmMicro) over horizontal row bands
///    on a ThreadPool, the stand-in for a multithreaded BLAS.
///
/// All matrices are row-major and contiguous: C (MxN) += A (MxK) * B (KxN).
/// Every kernel accumulates each C element over l = 0..K-1 in ascending
/// order, starting from the C input, with a separately rounded multiply
/// and add per product; the library is compiled with -ffp-contract=off so
/// no multiply-add is ever fused. For identical inputs gemmBlocked,
/// gemmMicro on any tile and gemmParallel in either mode produce
/// bit-identical results: tiling, register tiles, vector lanes and row
/// bands only reorder *independent* elements. gemmNaive skips the zero
/// entries of A, which can change the sign of a zero (or a NaN from
/// 0 * inf) but nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_BLAS_GEMM_H
#define FUPERMOD_BLAS_GEMM_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fupermod {

class ThreadPool;

/// C += A * B with the textbook i-k-j loop nest.
void gemmNaive(std::size_t M, std::size_t N, std::size_t K,
               std::span<const double> A, std::span<const double> B,
               std::span<double> C);

/// C += A * B with square cache tiles of the given edge length.
void gemmBlocked(std::size_t M, std::size_t N, std::size_t K,
                 std::span<const double> A, std::span<const double> B,
                 std::span<double> C, std::size_t Tile = 64);

/// C += A * B through the register-blocked micro-kernel: B is packed into
/// contiguous K-strip panels of NR columns, and MR x NR tiles of C are
/// held in registers across the whole K strip (one load/store of C per
/// strip instead of one per multiply); remainder rows and columns are
/// finished by a scalar edge loop. The tile, and with it MR x NR, is
/// chosen once per process by CPUID dispatch: the AVX-512 8x16 tile when
/// the CPU has AVX-512F, else the AVX2 4x8 tile when it has AVX2, else
/// the portable 4x8 tile. Every tile multiplies, then adds. Bit-identical
/// to gemmBlocked on every ISA.
void gemmMicro(std::size_t M, std::size_t N, std::size_t K,
               std::span<const double> A, std::span<const double> B,
               std::span<double> C);

/// Instruction set of a micro-kernel tile.
enum class GemmIsa { Portable, Avx2, Avx512 };

/// The tile the micro-kernel dispatcher resolved to on this machine
/// (decided once, on first use or query).
GemmIsa gemmMicroIsa();

/// Human-readable name of \p Isa ("portable", "avx2", "avx512").
const char *gemmIsaName(GemmIsa Isa);

/// Every tile this build compiled and this CPU can run, narrowest first;
/// the last one is gemmMicroIsa().
std::vector<GemmIsa> gemmSupportedIsas();

/// Test and bench entry to the dispatcher's per-ISA tiles: gemmMicro on
/// the tile of \p Isa — row-banded like gemmParallel(UseMicro), with
/// bands rounded to \p Tile rows, when \p Pool is given — instead of the
/// dispatched one. Returns false, with C untouched, when this CPU cannot
/// run that tile.
bool gemmMicroOn(GemmIsa Isa, std::size_t M, std::size_t N, std::size_t K,
                 std::span<const double> A, std::span<const double> B,
                 std::span<double> C, ThreadPool *Pool = nullptr,
                 std::size_t Tile = 64);

/// C += A * B with the M dimension split into row bands executed on
/// \p Pool (plus the calling thread's share). Each band runs gemmBlocked
/// — or gemmMicro when \p UseMicro — with the same tiling, and bands
/// write disjoint rows of C and never change any element's accumulation
/// order, so the result is bit-identical to a single serial call of the
/// selected kernel. Falls back to the serial kernel when the pool has
/// one worker or M is a single band.
void gemmParallel(std::size_t M, std::size_t N, std::size_t K,
                  std::span<const double> A, std::span<const double> B,
                  std::span<double> C, ThreadPool &Pool,
                  std::size_t Tile = 64, bool UseMicro = false);

/// Modelled speedup of gemmParallel with \p Threads workers: Amdahl's law
/// with a small serial fraction covering band fork/join and the shared
/// memory bus. Used to charge virtual compute time for multithreaded
/// devices (the container pins the runtime to one physical core, so the
/// thread-scaling curve is modelled rather than measured — see DESIGN.md
/// §8).
double gemmThreadSpeedup(unsigned Threads);

/// Floating point operations performed by one C += A*B call.
inline double gemmFlops(std::size_t M, std::size_t N, std::size_t K) {
  return 2.0 * static_cast<double>(M) * static_cast<double>(N) *
         static_cast<double>(K);
}

/// Fills \p Data with deterministic pseudo-random values in [-1, 1).
void fillDeterministic(std::span<double> Data, std::uint64_t Seed);

/// Largest absolute elementwise difference between \p A and \p B.
double maxAbsDiff(std::span<const double> A, std::span<const double> B);

} // namespace fupermod

#endif // FUPERMOD_BLAS_GEMM_H
