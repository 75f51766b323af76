//===-- tests/GemmMicroTest.cpp - register-blocked micro-kernel tests -----===//
//
// The micro-kernel's contract (blas/Gemm.h): gemmMicro performs, per C
// element, the same l-ascending sequence of separately rounded multiplies
// and adds as gemmBlocked, so it is bit-identical to it on every ISA;
// banding in gemmParallel never changes per-element accumulation order,
// so the parallel micro path is bit-identical too; and the ISA is
// resolved once per process by CPUID dispatch — whichever tile body runs,
// both properties hold, so every tile the CPU supports is checked.
//
//===----------------------------------------------------------------------===//

#include "blas/Gemm.h"

#include "core/GemmKernel.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

using namespace fupermod;

TEST(GemmMicro, BitIdenticalToBlocked) {
  // Seeded random shapes: remainder rows (M % 8 != 0) and columns
  // (N % 16 != 0) exercise the scalar edges of the 4x8 and the 8x16
  // tiles, K = 257 crosses the KC = 256 strip boundary, and C starts
  // non-zero so the C input is the first term of every accumulation.
  // Fixed edge shapes follow: one multiply-add per element ({4, 8, 1},
  // {1, 1, 1}), fewer rows than a tile ({5, 9, 7}, {3, 70, 2}), odd
  // remainders ({17, 23, 31}, {33, 40, 5}) and a tile-aligned square.
  // Every tile this CPU can run is checked, not only the dispatched one,
  // serial and row-banded.
  struct Shape {
    std::size_t M, N, K;
  };
  std::vector<Shape> Shapes;
  SplitMix64 Rng(0xb17e);
  const std::size_t Ks[] = {1, 33, 64, 257};
  for (std::size_t Case = 0; Case < 64; ++Case) {
    // Every M % 8 meets every K; N % 16 cycles through all remainders.
    const std::size_t M = 8 * (1 + Rng.next() % 8) + Case % 8;
    const std::size_t N = 16 * (Rng.next() % 5) + 1 + (5 * Case) % 16;
    Shapes.push_back({M, N, Ks[(Case / 8) % 4]});
  }
  Shapes.insert(Shapes.end(), {{17, 23, 31},
                               {4, 8, 1},
                               {5, 9, 7},
                               {64, 64, 64},
                               {33, 40, 5},
                               {1, 1, 1},
                               {3, 70, 2}});

  ThreadPool Pool(3);
  const std::vector<GemmIsa> Isas = gemmSupportedIsas();
  for (std::size_t Case = 0; Case < Shapes.size(); ++Case) {
    const auto [M, N, K] = Shapes[Case];
    std::vector<double> A(M * K), B(K * N), C0(M * N);
    fillDeterministic(A, 3 * Case + 1);
    fillDeterministic(B, 3 * Case + 2);
    fillDeterministic(C0, 3 * Case + 3);

    std::vector<double> Blocked = C0, Micro = C0, Banded = C0;
    gemmBlocked(M, N, K, A, B, Blocked);
    gemmMicro(M, N, K, A, B, Micro);
    gemmParallel(M, N, K, A, B, Banded, Pool, /*Tile=*/16, /*UseMicro=*/true);
    const std::size_t Bytes = M * N * sizeof(double);
    EXPECT_EQ(0, std::memcmp(Blocked.data(), Micro.data(), Bytes))
        << "gemmMicro " << M << "x" << N << "x" << K << " on "
        << gemmIsaName(gemmMicroIsa());
    EXPECT_EQ(0, std::memcmp(Blocked.data(), Banded.data(), Bytes))
        << "pooled micro " << M << "x" << N << "x" << K << " on "
        << gemmIsaName(gemmMicroIsa());

    for (GemmIsa Isa : Isas) {
      std::vector<double> OnTile = C0, OnTileBanded = C0;
      ASSERT_TRUE(gemmMicroOn(Isa, M, N, K, A, B, OnTile));
      ASSERT_TRUE(gemmMicroOn(Isa, M, N, K, A, B, OnTileBanded, &Pool,
                              /*Tile=*/16));
      EXPECT_EQ(0, std::memcmp(Blocked.data(), OnTile.data(), Bytes))
          << "tile " << gemmIsaName(Isa) << " " << M << "x" << N << "x" << K;
      EXPECT_EQ(0, std::memcmp(Blocked.data(), OnTileBanded.data(), Bytes))
          << "pooled tile " << gemmIsaName(Isa) << " " << M << "x" << N
          << "x" << K;
    }
  }
}

TEST(GemmMicro, ParallelBandingIsBitIdenticalToSerial) {
  // Row bands write disjoint rows and never reorder any element's
  // accumulation, so the pooled micro path must match serial gemmMicro
  // exactly.
  const std::size_t M = 61, N = 40, K = 33;
  std::vector<double> A(M * K), B(K * N), C0(M * N);
  fillDeterministic(A, 7);
  fillDeterministic(B, 8);
  fillDeterministic(C0, 9);

  std::vector<double> Serial = C0, Banded = C0;
  gemmMicro(M, N, K, A, B, Serial);
  ThreadPool Pool(3);
  gemmParallel(M, N, K, A, B, Banded, Pool, /*Tile=*/16, /*UseMicro=*/true);
  EXPECT_EQ(maxAbsDiff(Serial, Banded), 0.0);
}

TEST(GemmMicro, DispatchReportsAResolvedIsa) {
  GemmIsa Isa = gemmMicroIsa();
  EXPECT_TRUE(Isa == GemmIsa::Portable || Isa == GemmIsa::Avx2 ||
              Isa == GemmIsa::Avx512);
  // The resolution is per-process and stable.
  EXPECT_EQ(gemmMicroIsa(), Isa);
  EXPECT_STREQ(gemmIsaName(GemmIsa::Portable), "portable");
  EXPECT_STREQ(gemmIsaName(GemmIsa::Avx2), "avx2");
  EXPECT_STREQ(gemmIsaName(GemmIsa::Avx512), "avx512");
  // The portable tile always runs, and the dispatcher picks the widest
  // tile the CPU supports.
  const std::vector<GemmIsa> Isas = gemmSupportedIsas();
  ASSERT_FALSE(Isas.empty());
  EXPECT_EQ(Isas.front(), GemmIsa::Portable);
  EXPECT_EQ(Isas.back(), Isa);
}

TEST(GemmMicro, GemmKernelRunsMicroModeSerialAndPooled) {
  // The kernel wrapper replicates the application's block-update pattern;
  // micro mode must run it end to end in both the serial and the
  // row-banded configuration, with the complexity accounting unchanged.
  for (unsigned Threads : {1u, 2u}) {
    GemmKernel K(/*BlockSize=*/8, /*UseBlockedGemm=*/true, Threads,
                 /*UseMicroGemm=*/true);
    EXPECT_DOUBLE_EQ(K.complexity(5.0), 2.0 * 5.0 * 512.0);
    ASSERT_TRUE(K.initialize(12));
    K.execute();
    K.execute();
    K.finalize();
  }
}
