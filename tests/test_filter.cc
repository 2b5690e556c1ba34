/** @file Tests of task filters and their composition. */

#include <gtest/gtest.h>

#include "filter/task_filter.h"
#include "trace/trace.h"

namespace aftermath {
namespace filter {
namespace {

class FilterTest : public ::testing::Test
{
  protected:
    trace::Trace tr;

    void
    SetUp() override
    {
        tr.setTopology(trace::MachineTopology::uniform(2, 2));
        tr.addTaskType({0xa, "alpha"});
        tr.addTaskType({0xb, "beta"});
        // Four tasks: type/cpu/duration variations.
        tr.addTaskInstance({0, 0xa, 0, {0, 100}});
        tr.addTaskInstance({1, 0xa, 1, {100, 350}});
        tr.addTaskInstance({2, 0xb, 2, {50, 450}});
        tr.addTaskInstance({3, 0xb, 3, {400, 410}});
        // Regions on both nodes; task 0 reads node 0, task 2 writes
        // node 1.
        tr.addMemRegion({0, 0x1000, 0x100, 0});
        tr.addMemRegion({1, 0x2000, 0x100, 1});
        tr.addMemAccess({0, 0x1000, 64, false});
        tr.addMemAccess({2, 0x2000, 128, true});
        std::string err;
        ASSERT_TRUE(tr.finalize(err)) << err;
    }

    std::vector<TaskInstanceId>
    idsOf(const TaskFilter &f)
    {
        std::vector<TaskInstanceId> out;
        for (const trace::TaskInstance &t : tr.taskInstances())
            if (f.matches(tr, t))
                out.push_back(t.id);
        return out;
    }
};

TEST_F(FilterTest, TypeFilter)
{
    TaskTypeFilter f({0xa});
    EXPECT_EQ(idsOf(f), (std::vector<TaskInstanceId>{0, 1}));
    TaskTypeFilter none({0xdead});
    EXPECT_TRUE(idsOf(none).empty());
    TaskTypeFilter both({0xa, 0xb});
    EXPECT_EQ(idsOf(both).size(), 4u);
}

TEST_F(FilterTest, DurationFilterIsInclusive)
{
    DurationFilter f(100, 250);
    EXPECT_EQ(idsOf(f), (std::vector<TaskInstanceId>{0, 1}));
    DurationFilter exact(10, 10);
    EXPECT_EQ(idsOf(exact), (std::vector<TaskInstanceId>{3}));
}

TEST_F(FilterTest, CpuFilter)
{
    CpuFilter f({1, 3});
    EXPECT_EQ(idsOf(f), (std::vector<TaskInstanceId>{1, 3}));
}

TEST_F(FilterTest, IntervalFilter)
{
    IntervalFilter f(TimeInterval{0, 60});
    EXPECT_EQ(idsOf(f), (std::vector<TaskInstanceId>{0, 2}));
    IntervalFilter late(TimeInterval{405, 500});
    EXPECT_EQ(idsOf(late), (std::vector<TaskInstanceId>{2, 3}));
}

TEST_F(FilterTest, NumaTargetFilter)
{
    NumaTargetFilter reads_node0(0, /*writes=*/false);
    EXPECT_EQ(idsOf(reads_node0), (std::vector<TaskInstanceId>{0}));
    NumaTargetFilter writes_node1(1, /*writes=*/true);
    EXPECT_EQ(idsOf(writes_node1), (std::vector<TaskInstanceId>{2}));
    NumaTargetFilter writes_node0(0, /*writes=*/true);
    EXPECT_TRUE(idsOf(writes_node0).empty());
}

TEST_F(FilterTest, EmptyFilterSetAcceptsAll)
{
    FilterSet set;
    EXPECT_EQ(idsOf(set).size(), 4u);
    EXPECT_EQ(set.describe(), "all tasks");
}

TEST_F(FilterTest, FilterSetIsConjunction)
{
    FilterSet set;
    set.add(std::make_shared<TaskTypeFilter>(
        std::unordered_set<TaskTypeId>{0xa, 0xb}));
    set.add(std::make_shared<DurationFilter>(200, 1000));
    EXPECT_EQ(idsOf(set), (std::vector<TaskInstanceId>{1, 2}));
    set.add(std::make_shared<CpuFilter>(std::unordered_set<CpuId>{2}));
    EXPECT_EQ(idsOf(set), (std::vector<TaskInstanceId>{2}));
    EXPECT_EQ(set.size(), 3u);
}

TEST_F(FilterTest, DescriptionsAreInformative)
{
    DurationFilter f(0, 50'000'000);
    EXPECT_NE(f.describe().find("duration"), std::string::npos);
    NumaTargetFilter n(3, true);
    EXPECT_NE(n.describe().find("writes to node 3"), std::string::npos);
    FilterSet set;
    set.add(std::make_shared<DurationFilter>(1, 2));
    set.add(std::make_shared<CpuFilter>(std::unordered_set<CpuId>{0}));
    EXPECT_NE(set.describe().find(" and "), std::string::npos);
}

} // namespace
} // namespace filter
} // namespace aftermath
