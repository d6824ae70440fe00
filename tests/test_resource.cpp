// Generalized resource model and pools (paper §III).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "resource/pool.hpp"
#include "resource/resource.hpp"

namespace flux {
namespace {

ResourceGraph small_center() {
  // 2 clusters x 2 racks x 4 nodes = 16 nodes, 16 cores each.
  return ResourceGraph::build_center("center", 2, 2, 4, 16, 32, 350, 100);
}

TEST(ResourceGraph, BuildCenterShape) {
  ResourceGraph g = small_center();
  EXPECT_EQ(g.find("cluster").size(), 2u);
  EXPECT_EQ(g.find("rack").size(), 4u);
  EXPECT_EQ(g.find("node").size(), 16u);
  EXPECT_EQ(g.find("core").size(), 16u * 16u);
  EXPECT_DOUBLE_EQ(g.total_capacity("power"), 16 * 350.0);
  EXPECT_DOUBLE_EQ(g.total_capacity("bandwidth"), 200.0);
}

TEST(ResourceGraph, SubtreeScoping) {
  ResourceGraph g = small_center();
  const ResourceId cluster0 = g.find("cluster").front();
  EXPECT_EQ(g.find("node", cluster0).size(), 8u);
  EXPECT_DOUBLE_EQ(g.total_capacity("power", cluster0), 8 * 350.0);
}

TEST(ResourceGraph, PathNames) {
  ResourceGraph g = small_center();
  const ResourceId node = g.find("node").front();
  EXPECT_EQ(g.path(node), "center.cluster0.rack0.node0");
}

TEST(ResourceGraph, JsonRoundTrip) {
  ResourceGraph g = small_center();
  auto back = ResourceGraph::from_json(g.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), g.size());
  EXPECT_EQ(back->find("core").size(), g.find("core").size());
  EXPECT_EQ(back->to_json(), g.to_json());
}

TEST(ResourceGraph, FromJsonRejectsGarbage) {
  EXPECT_FALSE(ResourceGraph::from_json(Json(3)).has_value());
  EXPECT_FALSE(
      ResourceGraph::from_json(Json::object({{"type", "node"}})).has_value());
}

TEST(Pool, AllocateReleaseAccounting) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  EXPECT_EQ(pool.total_nodes(), 16u);
  ResourceRequest req;
  req.nnodes = 5;
  req.power_w = 1000;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes.size(), 5u);
  EXPECT_EQ(pool.free_nodes(), 11u);
  EXPECT_DOUBLE_EQ(pool.power_in_use(), 1000);
  EXPECT_NEAR(pool.node_utilization(), 5.0 / 16.0, 1e-9);
  ASSERT_TRUE(pool.release(alloc->id).has_value());
  EXPECT_EQ(pool.free_nodes(), 16u);
  EXPECT_DOUBLE_EQ(pool.power_in_use(), 0);
}

TEST(Pool, RejectsInfeasibleAndOversized) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest too_wide;
  too_wide.nnodes = 17;
  EXPECT_FALSE(pool.feasible(too_wide));
  EXPECT_FALSE(pool.allocate(too_wide).has_value());
  ResourceRequest too_hot;
  too_hot.nnodes = 1;
  too_hot.power_w = 1e9;
  EXPECT_FALSE(pool.allocate(too_hot).has_value());
  ResourceRequest too_many_cores;
  too_many_cores.nnodes = 1;
  too_many_cores.cores_per_node = 64;
  EXPECT_FALSE(pool.allocate(too_many_cores).has_value());
}

TEST(Pool, PowerBudgetGatesConcurrency) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);  // budget = 5600 W
  ResourceRequest req;
  req.nnodes = 1;
  req.power_w = 2000;
  ASSERT_TRUE(pool.allocate(req).has_value());
  ASSERT_TRUE(pool.allocate(req).has_value());
  // Third would exceed 5600.
  EXPECT_FALSE(pool.fits_now(req));
  EXPECT_FALSE(pool.allocate(req).has_value());
}

TEST(Pool, GrowAndShrink) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 4;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  ResourceRequest delta;
  delta.nnodes = 2;
  auto grown = pool.grow(alloc->id, delta);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->size(), 2u);
  EXPECT_EQ(pool.lookup(alloc->id)->nodes.size(), 6u);
  auto freed = pool.shrink(alloc->id, delta);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(pool.lookup(alloc->id)->nodes.size(), 4u);
  EXPECT_EQ(pool.free_nodes(), 12u);
}

TEST(Pool, ShrinkMoreThanAllocatedRejected) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 2;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  ResourceRequest delta;
  delta.nnodes = 3;
  EXPECT_FALSE(pool.shrink(alloc->id, delta).has_value());
}

TEST(Pool, AdoptAndCedeMoveCapacityBetweenPools) {
  ResourceGraph g = small_center();
  ResourcePool parent(g);
  ResourceRequest carve;
  carve.nnodes = 6;
  carve.power_w = 2100;
  auto alloc = parent.allocate(carve);
  ASSERT_TRUE(alloc.has_value());
  ResourcePool child(g, alloc->nodes, alloc->power_w, 0);
  EXPECT_EQ(child.total_nodes(), 6u);
  EXPECT_DOUBLE_EQ(child.power_budget(), 2100);

  // Child gives two nodes back.
  ResourceRequest back;
  back.nnodes = 2;
  back.power_w = 700;
  auto ceded = child.cede(back);
  ASSERT_TRUE(ceded.has_value());
  EXPECT_EQ(child.total_nodes(), 4u);
  ASSERT_TRUE(parent.shrink_nodes(alloc->id, *ceded, 700, 0).has_value());
  EXPECT_EQ(parent.free_nodes(), 12u);

  // Parent grants one node more.
  ResourceRequest more;
  more.nnodes = 1;
  more.power_w = 350;
  auto granted = parent.grow(alloc->id, more);
  ASSERT_TRUE(granted.has_value());
  child.adopt(*granted, 350, 0);
  EXPECT_EQ(child.total_nodes(), 5u);
  EXPECT_DOUBLE_EQ(child.power_budget(), 1750);
}

TEST(Pool, OverBudgetDetection) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 2;
  req.power_w = 3000;
  ASSERT_TRUE(pool.allocate(req).has_value());
  EXPECT_FALSE(pool.over_power_budget());
  pool.set_power_budget(2000);  // dynamic cap below current use
  EXPECT_TRUE(pool.over_power_budget());
}

TEST(Pool, CoreConstraintSelectsWideNodes) {
  // Heterogeneous graph: 2 fat nodes (32 cores), 2 thin (8 cores).
  ResourceGraph g;
  const ResourceId root = g.add_root("cluster", "mixed");
  for (int i = 0; i < 4; ++i) {
    const ResourceId n =
        g.add(root, "node", std::string("n").append(std::to_string(i)));
    const int cores = i < 2 ? 32 : 8;
    for (int c = 0; c < cores; ++c)
      g.add(n, "core", std::string("c").append(std::to_string(c)));
  }
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 2;
  req.cores_per_node = 16;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  for (ResourceId n : alloc->nodes)
    EXPECT_GE(g.find("core", n).size(), 16u);
  // A third wide node does not exist.
  ResourceRequest one_more = req;
  one_more.nnodes = 1;
  EXPECT_FALSE(pool.allocate(one_more).has_value());
}

TEST(Pool, CoreCountsFollowAdoptAndCede) {
  // Two narrow nodes (4 cores) in the pool; a wide one (32 cores) outside.
  ResourceGraph g;
  const ResourceId root = g.add_root("cluster", "mixed");
  auto add_node = [&](const std::string& name, int cores) {
    const ResourceId n = g.add(root, "node", name);
    for (int c = 0; c < cores; ++c) g.add(n, "core", std::to_string(c));
    return n;
  };
  const ResourceId narrow0 = add_node("narrow0", 4);
  const ResourceId narrow1 = add_node("narrow1", 4);
  const ResourceId wide = add_node("wide", 32);
  ResourcePool pool(g, {narrow0, narrow1}, 0, 0);

  ResourceRequest req;
  req.cores_per_node = 16;
  EXPECT_FALSE(pool.feasible(req));
  EXPECT_FALSE(pool.fits_now(req));

  // Adopting the wide node brings its core count with it.
  pool.adopt({wide}, 0, 0);
  EXPECT_TRUE(pool.feasible(req));
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes, std::vector<ResourceId>{wide});
  ASSERT_TRUE(pool.release(alloc->id).has_value());

  // Ceding it (the highest free id) takes the count away again.
  auto ceded = pool.cede(ResourceRequest{});
  ASSERT_TRUE(ceded.has_value());
  EXPECT_EQ(*ceded, std::vector<ResourceId>{wide});
  EXPECT_FALSE(pool.feasible(req));
  EXPECT_FALSE(pool.allocate(req).has_value());
  ResourceRequest narrow;
  narrow.nnodes = 2;
  narrow.cores_per_node = 4;
  EXPECT_TRUE(pool.allocate(narrow).has_value());
}

TEST(Pool, FreeNodeMarkedDownIsNeverAllocated) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  const ResourceId dead = g.find("node").front();
  pool.mark_down(dead);
  EXPECT_EQ(pool.free_nodes(), 15u);
  EXPECT_EQ(pool.down_nodes(), 1u);
  ResourceRequest all_up;
  all_up.nnodes = 15;
  auto alloc = pool.allocate(all_up);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(std::count(alloc->nodes.begin(), alloc->nodes.end(), dead), 0);
  ResourceRequest one;
  EXPECT_FALSE(pool.allocate(one).has_value());
  // A down node never returns, so admission stops counting it.
  ResourceRequest full;
  full.nnodes = 16;
  EXPECT_FALSE(pool.feasible(full));
  EXPECT_FALSE(pool.fits_now(full));
  EXPECT_TRUE(pool.feasible(all_up));
}

TEST(Pool, AllocatedNodeMarkedDownStaysOutAfterRelease) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest three;
  three.nnodes = 3;
  ResourceRequest two;
  two.nnodes = 2;
  auto victim = pool.allocate(three);
  auto other = pool.allocate(two);
  ASSERT_TRUE(victim.has_value() && other.has_value());
  const std::vector<ResourceId> other_nodes = other->nodes;
  const ResourceId dead = victim->nodes[1];

  pool.mark_down(dead);
  // Nothing else moves: the free count, and the other allocation's id and
  // nodes.
  EXPECT_EQ(pool.free_nodes(), 11u);
  ASSERT_NE(pool.lookup(other->id), nullptr);
  EXPECT_EQ(pool.lookup(other->id)->nodes, other_nodes);

  ASSERT_TRUE(pool.release(victim->id).has_value());
  EXPECT_EQ(pool.free_nodes(), 13u);
  EXPECT_EQ(pool.lookup(other->id)->nodes, other_nodes);
  ResourceRequest rest;
  rest.nnodes = 13;
  auto again = pool.allocate(rest);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(std::count(again->nodes.begin(), again->nodes.end(), dead), 0);
  EXPECT_NE(again->id, other->id);
  ASSERT_TRUE(pool.release(other->id).has_value());
  EXPECT_EQ(pool.free_nodes(), 2u);
}

}  // namespace
}  // namespace flux
