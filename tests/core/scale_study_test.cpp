// The streaming scale study against run_pop_study: both run run_pop_pairs,
// per chunk and over the whole population, so the same world and config must
// give bit-equal results. Chunking, chunk size, and process boundaries must
// be invisible in the bytes.
#include "bgpcmp/core/scale_study.h"

#include <gtest/gtest.h>

#include "bgpcmp/core/study_pop.h"
#include "../testutil.h"

namespace bgpcmp::core {
namespace {

PopStudyConfig short_study() {
  PopStudyConfig cfg;
  cfg.days = 0.25;       // six 15-minute windows
  cfg.window_stride = 3;  // keep two of them
  return cfg;
}

TEST(ScaleStudy, BitEqualToEagerStudy) {
  const auto cfg = test::small_scenario_config();
  const auto scenario = Scenario::make(cfg);
  const auto eager = run_pop_study(*scenario, short_study());

  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 16;
  const auto streamed = run_scale_study(*world, scfg);

  ASSERT_EQ(streamed.windows.size(), eager.windows.size());
  EXPECT_EQ(streamed.pair_count(), eager.series.size());

  // Identical observations in identical order: quantiles and the headline
  // fraction are bit-equal, not merely close.
  const auto eager_cdf = eager.fig1_cdf();
  const auto stream_cdf = streamed.fig1_cdf();
  ASSERT_EQ(stream_cdf.count(), eager_cdf.count());
  for (const double x : {-10.0, -2.0, 0.0, 2.0, 10.0}) {
    EXPECT_EQ(stream_cdf.fraction_at_most(x), eager_cdf.fraction_at_most(x)) << "x=" << x;
  }
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_EQ(stream_cdf.quantile(q), eager_cdf.quantile(q)) << "q=" << q;
  }
  for (const double threshold : {0.0, 2.0, 5.0}) {
    EXPECT_EQ(streamed.improvable_traffic_fraction(threshold),
              eager.improvable_traffic_fraction(threshold))
        << "threshold=" << threshold;
  }
}

TEST(ScaleStudy, ChunkSizeNeverChangesTheResult) {
  const auto cfg = test::small_scenario_config();
  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig a;
  a.study = short_study();
  a.chunk_origins = 4;
  ScaleStudyConfig b = a;
  b.chunk_origins = 1000;  // the whole world in one chunk
  const auto ra = run_scale_study(*world, a);
  const auto rb = run_scale_study(*world, b);
  EXPECT_GT(ra.chunks.size(), rb.chunks.size());
  EXPECT_EQ(ra.pair_count(), rb.pair_count());
  const auto ca = ra.fig1_cdf();
  const auto cb = rb.fig1_cdf();
  ASSERT_EQ(ca.count(), cb.count());
  EXPECT_EQ(ca.quantile(0.5), cb.quantile(0.5));
  EXPECT_EQ(ra.improvable_traffic_fraction(2.0), rb.improvable_traffic_fraction(2.0));
}

TEST(ScaleStudy, ChunksComputeIdenticallyInIsolation) {
  // The shard property: a worker that skips straight to chunk 2 produces the
  // same bytes as the serial run that walked chunks 0 and 1 first.
  const auto cfg = test::small_scenario_config();
  const auto world = ScaleWorld::make(cfg);
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 16;
  const auto serial = run_scale_study(*world, scfg);
  ASSERT_GT(serial.chunks.size(), 2u);

  const auto windows = study_windows(scfg.study);
  const traffic::ClientStream stream{&world->internet, world->config.clients,
                                     scfg.chunk_origins};
  traffic::DemandStream cursor{world->config.demand};
  cursor.skip(stream.chunk_prefix_range(2).first);
  const auto isolated = run_scale_chunk(*world, scfg, windows, stream, cursor, 2);
  EXPECT_EQ(isolated.series_digest, serial.chunks[2].series_digest);
  EXPECT_EQ(isolated.pairs, serial.chunks[2].pairs);
  EXPECT_EQ(isolated.line(), serial.chunks[2].line());
  ASSERT_EQ(isolated.fig1.size(), serial.chunks[2].fig1.size());
  for (std::size_t i = 0; i < isolated.fig1.size(); ++i) {
    EXPECT_EQ(isolated.fig1[i].value, serial.chunks[2].fig1[i].value);
    EXPECT_EQ(isolated.fig1[i].weight, serial.chunks[2].fig1[i].weight);
  }
}

TEST(ScaleStudy, FingerprintIsDeterministic) {
  const auto cfg = test::small_scenario_config();
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 16;
  const auto r1 = run_scale_study(*ScaleWorld::make(cfg), scfg);
  const auto r2 = run_scale_study(*ScaleWorld::make(cfg), scfg);
  EXPECT_EQ(r1.fingerprint(), r2.fingerprint());
  EXPECT_NE(r1.fingerprint(), 0u);
}

TEST(ScaleWorld, AdoptMatchesMake) {
  const auto cfg = test::small_scenario_config();
  const auto made = ScaleWorld::make(cfg);
  const auto adopted = ScaleWorld::adopt(cfg, topo::build_internet(cfg.internet));
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 32;
  EXPECT_EQ(run_scale_study(*made, scfg).fingerprint(),
            run_scale_study(*adopted, scfg).fingerprint());
}

TEST(ScaleWorld, ScenarioCoreMatchesMake) {
  // A Scenario is the world core plus clients and demand: the streaming
  // study cannot tell its core from a bare ScaleWorld's.
  const auto cfg = test::small_scenario_config();
  ScaleStudyConfig scfg;
  scfg.study = short_study();
  scfg.chunk_origins = 32;
  EXPECT_EQ(run_scale_study(*Scenario::make(cfg), scfg).fingerprint(),
            run_scale_study(*ScaleWorld::make(cfg), scfg).fingerprint());
}

}  // namespace
}  // namespace bgpcmp::core
