#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace dmac {
namespace {

/// Enables the global registry with zeroed instruments for one test and
/// restores the disabled default afterwards.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricRegistry::Global().Reset();
    MetricRegistry::Global().SetEnabled(true);
  }
  void TearDown() override {
    MetricRegistry::Global().SetEnabled(false);
    MetricRegistry::Global().Reset();
  }
};

TEST_F(MetricsTest, CatalogNamesAreUniqueAndDotted) {
  std::set<std::string> names;
  for (const MetricSpec& spec : MetricCatalog()) {
    EXPECT_TRUE(names.insert(spec.name).second)
        << "duplicate catalog name " << spec.name;
    EXPECT_NE(std::string(spec.name).find('.'), std::string::npos);
    EXPECT_STRNE(spec.unit, "");
    EXPECT_STRNE(spec.help, "");
  }
}

TEST_F(MetricsTest, ExecStatsRowsAreCountersOrGauges) {
  // Record() feeds a row through its counter or gauge; a histogram cannot
  // be read from ExecStats, and only a gauge may be gated on its layer.
  for (const MetricSpec& spec : MetricCatalog()) {
    if (spec.read != nullptr) {
      EXPECT_NE(spec.kind, MetricKind::kHistogram) << spec.name;
    }
    if (spec.ran != nullptr) {
      EXPECT_NE(spec.read, nullptr) << spec.name;
      EXPECT_EQ(spec.kind, MetricKind::kGauge) << spec.name;
    }
  }
}

TEST_F(MetricsTest, CounterAccumulates) {
  Counter* c = MetricRegistry::Global().counter("exec.shuffle.bytes");
  c->Add(100.0);
  c->Add(28.0);
  c->Increment();
  EXPECT_DOUBLE_EQ(c->value(), 129.0);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  Gauge* g = MetricRegistry::Global().gauge("exec.stages");
  g->Set(5);
  g->Set(12);
  EXPECT_DOUBLE_EQ(g->value(), 12.0);
}

TEST_F(MetricsTest, HistogramTracksCountSumMaxAndQuantiles) {
  Histogram* h = MetricRegistry::Global().histogram(kMetricQueueWaitSeconds);
  // 98 microsecond-scale waits and 2 millisecond outliers: the median must
  // resolve to a microsecond bucket edge, p99 to a millisecond one.
  for (int i = 0; i < 98; ++i) h->Observe(1e-6);
  h->Observe(1e-3);
  h->Observe(1e-3);
  EXPECT_EQ(h->count(), 100);
  EXPECT_NEAR(h->sum(), 98e-6 + 2e-3, 1e-12);
  EXPECT_DOUBLE_EQ(h->max(), 1e-3);
  EXPECT_NEAR(h->mean(), h->sum() / 100, 1e-12);
  EXPECT_LE(h->Quantile(0.5), 1e-5);
  EXPECT_GE(h->Quantile(0.99), 1e-3 / 2);
  EXPECT_LE(h->Quantile(0.99), 4e-3);
}

TEST_F(MetricsTest, InstrumentPointersSurviveReset) {
  Counter* c = MetricRegistry::Global().counter(kMetricEngineTasks);
  c->Add(7);
  MetricRegistry::Global().Reset();
  EXPECT_DOUBLE_EQ(c->value(), 0.0);
  c->Add(3);  // same pointer keeps working
  EXPECT_DOUBLE_EQ(
      MetricRegistry::Global().counter(kMetricEngineTasks)->value(), 3.0);
}

TEST_F(MetricsTest, DisabledUpdatesAreDropped) {
  Counter* c = MetricRegistry::Global().counter(kMetricEngineTasks);
  Gauge* g = MetricRegistry::Global().gauge("exec.peak_memory.bytes");
  Histogram* h =
      MetricRegistry::Global().histogram(kMetricTaskSecondsMultiply);
  MetricRegistry::Global().SetEnabled(false);
  c->Add(5);
  g->Set(5);
  h->Observe(5);
  EXPECT_DOUBLE_EQ(c->value(), 0.0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0);
}

TEST_F(MetricsTest, CollectSkipsUntouchedInstrumentsAndKeepsCatalogOrder) {
  MetricRegistry::Global().counter("exec.shuffle.bytes")->Add(64);
  MetricRegistry::Global().gauge("exec.stages")->Set(2);
  std::vector<MetricValue> values = MetricRegistry::Global().Collect();
  ASSERT_EQ(values.size(), 2u);
  // Catalog lists exec.shuffle.bytes before exec.stages.
  EXPECT_EQ(values[0].name, "exec.shuffle.bytes");
  EXPECT_DOUBLE_EQ(values[0].value, 64.0);
  EXPECT_EQ(values[1].name, "exec.stages");
}

TEST_F(MetricsTest, JsonAndCsvDumpsContainTouchedMetrics) {
  MetricRegistry::Global().counter("exec.broadcast.rounds")->Increment();
  MetricRegistry::Global()
      .histogram(kMetricTaskSecondsAggregate)
      ->Observe(0.25);
  const std::string json = MetricRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"exec.broadcast.rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.task.seconds.aggregate\""),
            std::string::npos);
  const std::string csv = MetricRegistry::Global().ToCsv();
  EXPECT_EQ(csv.rfind("name,kind,unit,value,count,mean,p50,p99,max\n", 0),
            0u);
  EXPECT_NE(csv.find("exec.broadcast.rounds,counter,rounds,1"),
            std::string::npos);
}

TEST_F(MetricsTest, ConcurrentRecordingIsRaceFreeAndLosesNothing) {
  // Hammered from many threads; run under TSan in CI. Counter and
  // histogram totals must come out exact (CAS loops, not racy +=).
  Counter* c = MetricRegistry::Global().counter(kMetricEngineTasks);
  Histogram* h = MetricRegistry::Global().histogram(kMetricQueueWaitSeconds);
  Gauge* g = MetricRegistry::Global().gauge("exec.stages");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(1e-6 * (t + 1));
        g->Set(t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(c->value(), 1.0 * kThreads * kPerThread);
  EXPECT_EQ(h->count(), int64_t{kThreads} * kPerThread);
  EXPECT_GE(g->value(), 1.0);
  EXPECT_LE(g->value(), 1.0 * kThreads);
}

using MetricsDeathTest = MetricsTest;

TEST_F(MetricsDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MetricRegistry::Global().counter("no.such.metric"), "catalog");
}

TEST_F(MetricsDeathTest, KindMismatchAborts) {
  // exec.stages is a gauge; asking for a counter of that name is a bug.
  EXPECT_DEATH(MetricRegistry::Global().counter("exec.stages"),
               "requested as");
}

}  // namespace
}  // namespace dmac
