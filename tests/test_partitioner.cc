// Default-search and reporting tests: a whole recursive partition with default options
// and the Figure-11-style tiling reports.
#include <gtest/gtest.h>

#include "tofu/core/report.h"
#include "tofu/models/mlp.h"
#include "tofu/models/wresnet.h"
#include "tofu/partition/recursive.h"

namespace tofu {
namespace {

TEST(RecursivePartition, DefaultOptionsPartitionMlp) {
  MlpConfig config;
  config.layer_sizes = {512, 512, 128};
  config.batch = 64;
  ModelGraph model = BuildMlp(config);
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  EXPECT_EQ(plan.num_workers, 8);
  EXPECT_EQ(plan.steps.size(), 3u);
  EXPECT_GE(plan.total_comm_bytes, 0.0);
}

TEST(Report, PlanSummaryListsSteps) {
  MlpConfig config;
  config.layer_sizes = {256, 256, 64};
  ModelGraph model = BuildMlp(config);
  PartitionPlan plan = RecursivePartition(model.graph, 4);
  std::string summary = PlanSummary(model.graph, plan);
  EXPECT_NE(summary.find("plan for 4 workers"), std::string::npos);
  EXPECT_NE(summary.find("step 0"), std::string::npos);
  EXPECT_NE(summary.find("step 1"), std::string::npos);
}

TEST(Report, TilingReportCollapsesRepeatedBlocks) {
  WResNetConfig config;
  config.layers = 50;
  config.width = 4;
  config.batch = 8;
  ModelGraph model = BuildWResNet(config);
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  std::string report = TilingReport(model.graph, plan);
  EXPECT_NE(report.find("conv2d"), std::string::npos);
  EXPECT_NE(report.find("weight"), std::string::npos);
  // Repeated residual blocks must collapse into xN lines (Figure 11's notation).
  EXPECT_NE(report.find("x"), std::string::npos);
  // The report is much shorter than one line per conv.
  int lines = 0;
  for (char c : report) {
    lines += c == '\n' ? 1 : 0;
  }
  int convs = 0;
  for (const OpNode& op : model.graph.ops()) {
    convs += (!op.is_backward && op.type == "conv2d") ? 1 : 0;
  }
  EXPECT_LT(lines, convs);
}

TEST(Report, DescribeTilingShowsMultiDimSplits) {
  MlpConfig config;
  config.layer_sizes = {2048, 2048};
  config.batch = 64;
  config.with_bias = false;
  ModelGraph model = BuildMlp(config);
  PartitionPlan plan = RecursivePartition(model.graph, 8);
  bool any_described = false;
  for (const TensorNode& t : model.graph.tensors()) {
    std::string desc = plan.DescribeTiling(model.graph, t.id);
    EXPECT_FALSE(desc.empty());
    any_described = any_described || desc != "replicated";
  }
  EXPECT_TRUE(any_described);
}

}  // namespace
}  // namespace tofu
