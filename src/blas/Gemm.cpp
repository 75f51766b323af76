//===-- blas/Gemm.cpp - Dense matrix multiply kernels ---------------------===//

#include "blas/Gemm.h"

#include "support/Random.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <future>
#include <vector>

// The vector tiles are compiled on every x86 compiler that supports
// per-function target attributes and GCC vector extensions; the TU itself
// stays baseline, and a tile is only ever *called* after a CPUID check.
#if (defined(__x86_64__) || defined(__i386__)) &&                             \
    (defined(__GNUC__) || defined(__clang__))
#define FUPERMOD_HAVE_VECTOR_TILES 1
#else
#define FUPERMOD_HAVE_VECTOR_TILES 0
#endif

using namespace fupermod;

void fupermod::gemmNaive(std::size_t M, std::size_t N, std::size_t K,
                         std::span<const double> A, std::span<const double> B,
                         std::span<double> C) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  for (std::size_t I = 0; I < M; ++I) {
    for (std::size_t L = 0; L < K; ++L) {
      double AIL = A[I * K + L];
      if (AIL == 0.0)
        continue;
      const double *BRow = &B[L * N];
      double *CRow = &C[I * N];
      for (std::size_t J = 0; J < N; ++J)
        CRow[J] += AIL * BRow[J];
    }
  }
}

void fupermod::gemmBlocked(std::size_t M, std::size_t N, std::size_t K,
                           std::span<const double> A,
                           std::span<const double> B, std::span<double> C,
                           std::size_t Tile) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  assert(Tile > 0 && "tile must be positive");
  for (std::size_t I0 = 0; I0 < M; I0 += Tile) {
    std::size_t IMax = std::min(I0 + Tile, M);
    for (std::size_t L0 = 0; L0 < K; L0 += Tile) {
      std::size_t LMax = std::min(L0 + Tile, K);
      for (std::size_t J0 = 0; J0 < N; J0 += Tile) {
        std::size_t JMax = std::min(J0 + Tile, N);
        for (std::size_t I = I0; I < IMax; ++I) {
          for (std::size_t L = L0; L < LMax; ++L) {
            double AIL = A[I * K + L];
            const double *BRow = &B[L * N];
            double *CRow = &C[I * N];
            for (std::size_t J = J0; J < JMax; ++J)
              CRow[J] += AIL * BRow[J];
          }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// gemmMicro: register-blocked micro-kernel with runtime ISA dispatch
//===----------------------------------------------------------------------===//

namespace {

/// K-strip depth: one packed B panel (KC x NR doubles, 16 KiB for the
/// 8-wide panels, 32 KiB for the 16-wide ones) stays L1-resident while
/// every row block of A streams over it.
constexpr std::size_t KC = 256;

/// One register tile: C (MR x NR, row stride Ldc) += A (MR rows at row
/// stride Lda, depth Kb) * Bp (packed Kb x NR panel). Per C element the
/// products are accumulated over l ascending with a separately rounded
/// multiply and add, exactly like gemmBlocked — only independent elements
/// share a vector, so the result is bit-identical.
using TileFn = void (*)(std::size_t Kb, const double *A, std::size_t Lda,
                        const double *Bp, double *C, std::size_t Ldc);

/// A dispatchable tile: its body, its MR x NR shape (which gemmMicro's
/// packing loop and scalar edges read) and the ISA it needs.
struct MicroTile {
  GemmIsa Isa;
  TileFn Fn;
  std::size_t MR, NR;
};

/// Portable 4 x 8 tile, vectorized by the compiler for the baseline ISA.
void tilePortable(std::size_t Kb, const double *A, std::size_t Lda,
                  const double *Bp, double *C, std::size_t Ldc) {
  constexpr std::size_t MR = 4, NR = 8;
  double Acc[MR][NR];
  for (std::size_t R = 0; R < MR; ++R)
    for (std::size_t J = 0; J < NR; ++J)
      Acc[R][J] = C[R * Ldc + J];
  for (std::size_t L = 0; L < Kb; ++L) {
    const double *BRow = Bp + L * NR;
    for (std::size_t R = 0; R < MR; ++R) {
      double AR = A[R * Lda + L];
#pragma omp simd
      for (std::size_t J = 0; J < NR; ++J)
        Acc[R][J] += AR * BRow[J];
    }
  }
  for (std::size_t R = 0; R < MR; ++R)
    for (std::size_t J = 0; J < NR; ++J)
      C[R * Ldc + J] = Acc[R][J];
}

#if FUPERMOD_HAVE_VECTOR_TILES
/// The vector tile body, one template over the vector type: MR rows of C
/// held as two V accumulators each, so NR = 2 * lanes. Written with GCC
/// vector extensions rather than intrinsics so the same body compiles
/// for any width; it is always inlined into a per-ISA wrapper whose
/// target attribute picks the registers (ymm for AVX2, zmm for AVX-512).
template <typename V, std::size_t MR>
__attribute__((always_inline)) inline void
tileVector(std::size_t Kb, const double *A, std::size_t Lda,
           const double *Bp, double *C, std::size_t Ldc) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  constexpr std::size_t NR = 2 * W;
  V Acc[MR][2];
#pragma GCC unroll 8
  for (std::size_t R = 0; R < MR; ++R) {
    __builtin_memcpy(&Acc[R][0], C + R * Ldc, sizeof(V));
    __builtin_memcpy(&Acc[R][1], C + R * Ldc + W, sizeof(V));
  }
  for (std::size_t L = 0; L < Kb; ++L) {
    V B0, B1;
    __builtin_memcpy(&B0, Bp + L * NR, sizeof(V));
    __builtin_memcpy(&B1, Bp + L * NR + W, sizeof(V));
#pragma GCC unroll 8
    for (std::size_t R = 0; R < MR; ++R) {
      const double AR = A[R * Lda + L];
      Acc[R][0] = Acc[R][0] + AR * B0;
      Acc[R][1] = Acc[R][1] + AR * B1;
    }
  }
#pragma GCC unroll 8
  for (std::size_t R = 0; R < MR; ++R) {
    __builtin_memcpy(C + R * Ldc, &Acc[R][0], sizeof(V));
    __builtin_memcpy(C + R * Ldc + W, &Acc[R][1], sizeof(V));
  }
}

using V4d = double __attribute__((vector_size(32)));
using V8d = double __attribute__((vector_size(64)));

/// 4 x 8 tile: 8 ymm accumulators, 2 B vectors and 1 A broadcast — 11
/// of 16 vector registers.
__attribute__((target("avx2"))) void
tileAvx2(std::size_t Kb, const double *A, std::size_t Lda, const double *Bp,
         double *C, std::size_t Ldc) {
  tileVector<V4d, 4>(Kb, A, Lda, Bp, C, Ldc);
}

/// 8 x 16 tile: 16 zmm accumulators, 2 B vectors and 1 A broadcast — 19
/// of 32 vector registers.
__attribute__((target("avx512f"))) void
tileAvx512(std::size_t Kb, const double *A, std::size_t Lda,
           const double *Bp, double *C, std::size_t Ldc) {
  tileVector<V8d, 8>(Kb, A, Lda, Bp, C, Ldc);
}
#endif

/// Every tile this build compiled, portable first.
constexpr MicroTile CompiledTiles[] = {
    {GemmIsa::Portable, tilePortable, 4, 8},
#if FUPERMOD_HAVE_VECTOR_TILES
    {GemmIsa::Avx2, tileAvx2, 4, 8},
    {GemmIsa::Avx512, tileAvx512, 8, 16},
#endif
};

bool cpuRuns(GemmIsa Isa) {
  switch (Isa) {
  case GemmIsa::Portable:
    return true;
#if FUPERMOD_HAVE_VECTOR_TILES
  case GemmIsa::Avx2:
    return __builtin_cpu_supports("avx2");
  case GemmIsa::Avx512:
    return __builtin_cpu_supports("avx512f");
#endif
  default:
    return false;
  }
}

/// CPUID dispatch, decided once per process: the tiles this CPU can run,
/// and the widest of them.
struct MicroDispatch {
  std::vector<MicroTile> Supported;
  MicroDispatch() {
    for (const MicroTile &T : CompiledTiles)
      if (cpuRuns(T.Isa))
        Supported.push_back(T);
  }
  const MicroTile &best() const { return Supported.back(); }
};

const MicroDispatch &microDispatch() {
  static const MicroDispatch D;
  return D;
}

/// Scalar edge accumulation for rows [I0, IMax) x cols [J0, JMax) over
/// the K strip [L0, L0 + Kb): each element is finished in a register, l
/// ascending — the same per-element order as the tiles.
void microEdge(std::size_t I0, std::size_t IMax, std::size_t J0,
               std::size_t JMax, std::size_t L0, std::size_t Kb,
               std::size_t N, std::size_t K, const double *A,
               const double *B, double *C) {
  for (std::size_t I = I0; I < IMax; ++I) {
    const double *ARow = A + I * K + L0;
    for (std::size_t J = J0; J < JMax; ++J) {
      double S = C[I * N + J];
      const double *BCol = B + L0 * N + J;
      for (std::size_t L = 0; L < Kb; ++L)
        S += ARow[L] * BCol[L * N];
      C[I * N + J] = S;
    }
  }
}

/// gemmMicro on one tile. B is packed into contiguous K-strip panels of
/// the tile's NR columns; full MR x NR tiles of C run in registers and
/// the remainder rows and columns go through microEdge.
void microOn(const MicroTile &Tile, std::size_t M, std::size_t N,
             std::size_t K, const double *A, const double *B, double *C) {
  const std::size_t MR = Tile.MR, NR = Tile.NR;
  const std::size_t MFull = M - M % MR;
  const std::size_t NPanels = N / NR;
  const std::size_t NFull = NPanels * NR;

  // Panel-packed copy of one K strip of B: panel p holds columns
  // [p*NR, (p+1)*NR) as a contiguous Kb x NR block, so the tile streams
  // it with unit stride. Thread-local so repeated calls (and the
  // per-band calls of gemmParallel) reuse the allocation.
  static thread_local std::vector<double> Packed;
  if (Packed.size() < KC * NFull)
    Packed.resize(KC * NFull);

  for (std::size_t L0 = 0; L0 < K; L0 += KC) {
    const std::size_t Kb = std::min(KC, K - L0);
    for (std::size_t P = 0; P < NPanels; ++P) {
      double *Dst = Packed.data() + P * Kb * NR;
      const double *Src = B + L0 * N + P * NR;
      for (std::size_t L = 0; L < Kb; ++L)
        std::copy_n(Src + L * N, NR, Dst + L * NR);
    }
    for (std::size_t I = 0; I < MFull; I += MR) {
      const double *ARows = A + I * K + L0;
      for (std::size_t P = 0; P < NPanels; ++P)
        Tile.Fn(Kb, ARows, K, Packed.data() + P * Kb * NR, C + I * N + P * NR,
                N);
      if (NFull < N)
        microEdge(I, I + MR, NFull, N, L0, Kb, N, K, A, B, C);
    }
    if (MFull < M)
      microEdge(MFull, M, 0, N, L0, Kb, N, K, A, B, C);
  }
}

} // namespace

GemmIsa fupermod::gemmMicroIsa() { return microDispatch().best().Isa; }

const char *fupermod::gemmIsaName(GemmIsa Isa) {
  switch (Isa) {
  case GemmIsa::Avx2:
    return "avx2";
  case GemmIsa::Avx512:
    return "avx512";
  default:
    return "portable";
  }
}

std::vector<GemmIsa> fupermod::gemmSupportedIsas() {
  std::vector<GemmIsa> Isas;
  for (const MicroTile &T : microDispatch().Supported)
    Isas.push_back(T.Isa);
  return Isas;
}

void fupermod::gemmMicro(std::size_t M, std::size_t N, std::size_t K,
                         std::span<const double> A, std::span<const double> B,
                         std::span<double> C) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  microOn(microDispatch().best(), M, N, K, A.data(), B.data(), C.data());
}

namespace {

/// gemmParallel's row banding, with each band on \p Micro's tile, or on
/// gemmBlocked when \p Micro is null.
void bandedOn(const MicroTile *Micro, std::size_t M, std::size_t N,
              std::size_t K, std::span<const double> A,
              std::span<const double> B, std::span<double> C, ThreadPool &Pool,
              std::size_t Tile) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  assert(Tile > 0 && "tile must be positive");
  // Both band kernels compute every C element with a fixed per-element
  // accumulation order, so the banded result is bit-identical to one
  // serial call of the same kernel.
  auto Band = [&](std::size_t Rows, std::span<const double> ABand,
                  std::span<double> CBand) {
    if (Micro)
      microOn(*Micro, Rows, N, K, ABand.data(), B.data(), CBand.data());
    else
      gemmBlocked(Rows, N, K, ABand, B, CBand, Tile);
  };
  // One band per worker plus one for the calling thread, rounded to whole
  // tiles so every band runs the same tiling gemmBlocked would use for
  // those rows. Bands own disjoint row ranges of C — no synchronisation
  // beyond fork/join is needed and the per-element accumulation order is
  // unchanged.
  std::size_t Lanes = static_cast<std::size_t>(Pool.workerCount()) + 1;
  std::size_t TilesTotal = (M + Tile - 1) / Tile;
  std::size_t TilesPerBand = (TilesTotal + Lanes - 1) / Lanes;
  std::size_t BandRows = TilesPerBand * Tile;
  if (Lanes == 1 || BandRows >= M) {
    Band(M, A, C);
    return;
  }

  std::vector<std::future<void>> Pending;
  for (std::size_t Row0 = BandRows; Row0 < M; Row0 += BandRows) {
    std::size_t Rows = std::min(BandRows, M - Row0);
    Pending.push_back(Pool.submit([=] {
      Band(Rows, A.subspan(Row0 * K, Rows * K), C.subspan(Row0 * N, Rows * N));
    }));
  }
  // The calling thread computes the first band while the pool works.
  Band(BandRows, A.first(BandRows * K), C.first(BandRows * N));
  for (auto &F : Pending)
    F.get();
}

} // namespace

void fupermod::gemmParallel(std::size_t M, std::size_t N, std::size_t K,
                            std::span<const double> A,
                            std::span<const double> B, std::span<double> C,
                            ThreadPool &Pool, std::size_t Tile,
                            bool UseMicro) {
  bandedOn(UseMicro ? &microDispatch().best() : nullptr, M, N, K, A, B, C,
           Pool, Tile);
}

bool fupermod::gemmMicroOn(GemmIsa Isa, std::size_t M, std::size_t N,
                           std::size_t K, std::span<const double> A,
                           std::span<const double> B, std::span<double> C,
                           ThreadPool *Pool, std::size_t Tile) {
  assert(A.size() >= M * K && B.size() >= K * N && C.size() >= M * N &&
         "matrix buffers too small");
  for (const MicroTile &T : microDispatch().Supported) {
    if (T.Isa != Isa)
      continue;
    if (Pool)
      bandedOn(&T, M, N, K, A, B, C, *Pool, Tile);
    else
      microOn(T, M, N, K, A.data(), B.data(), C.data());
    return true;
  }
  return false;
}

double fupermod::gemmThreadSpeedup(unsigned Threads) {
  assert(Threads >= 1 && "need at least one thread");
  // Serial fraction ~6%: band fork/join plus the memory-bound tails of
  // each band that a shared bus serialises. Gives 1.0, ~1.9, ~3.1, ~4.4
  // for 1, 2, 4, 8 threads — the shape vendor multithreaded BLAS curves
  // show on small-to-medium matrices.
  constexpr double SerialFraction = 0.06;
  double T = static_cast<double>(Threads);
  return 1.0 / (SerialFraction + (1.0 - SerialFraction) / T);
}

void fupermod::fillDeterministic(std::span<double> Data, std::uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (double &E : Data)
    E = Rng.uniform(-1.0, 1.0);
}

double fupermod::maxAbsDiff(std::span<const double> A,
                            std::span<const double> B) {
  assert(A.size() == B.size() && "mismatched buffers");
  double Max = 0.0;
  for (std::size_t I = 0; I < A.size(); ++I)
    Max = std::max(Max, std::fabs(A[I] - B[I]));
  return Max;
}
