#include "openstack/nova.h"

#include <gtest/gtest.h>

#include "helpers.h"

namespace ostro::os {
namespace {

using ostro::testing::add_host_load;
using ostro::testing::small_dc;

TEST(NovaTest, SpreadsOntoEmptiestHost) {
  const auto dc = small_dc(2, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {4.0, 8.0, 0.0});
  add_host_load(occupancy, 1, {2.0, 4.0, 0.0});
  // Hosts 2 and 3 are empty; weigher prefers them over 0/1.
  const auto host = NovaScheduler::select_host(occupancy, {1.0, 1.0, 0.0});
  ASSERT_TRUE(host.has_value());
  EXPECT_TRUE(*host == 2 || *host == 3);
}

TEST(NovaTest, FiltersFullHosts) {
  const auto dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {7.0, 0.0, 0.0});
  add_host_load(occupancy, 1, {7.0, 0.0, 0.0});
  EXPECT_FALSE(
      NovaScheduler::select_host(occupancy, {2.0, 1.0, 0.0}).has_value());
  EXPECT_TRUE(
      NovaScheduler::select_host(occupancy, {1.0, 1.0, 0.0}).has_value());
}

TEST(NovaTest, ForcedHostValidated) {
  const auto dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {7.0, 0.0, 0.0});
  EXPECT_FALSE(NovaScheduler::select_forced(occupancy, {2.0, 1.0, 0.0},
                                            "h0-0")
                   .has_value());
  const auto ok =
      NovaScheduler::select_forced(occupancy, {2.0, 1.0, 0.0}, "h0-1");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 1u);
  EXPECT_FALSE(NovaScheduler::select_forced(occupancy, {1.0, 1.0, 0.0},
                                            "ghost")
                   .has_value());
}

TEST(CinderTest, PicksMostFreeDisk) {
  const auto dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {0.0, 0.0, 300.0});  // 200 GB free
  const auto host = CinderScheduler::select_host(occupancy, 100.0);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(*host, 1u);  // 500 GB free
}

TEST(CinderTest, FiltersByCapacity) {
  const auto dc = small_dc(1, 1);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {0.0, 0.0, 450.0});
  EXPECT_FALSE(CinderScheduler::select_host(occupancy, 100.0).has_value());
  EXPECT_TRUE(CinderScheduler::select_host(occupancy, 50.0).has_value());
}

TEST(CinderTest, ForcedHost) {
  const auto dc = small_dc(1, 2);
  dc::Occupancy occupancy(dc);
  add_host_load(occupancy, 0, {0.0, 0.0, 480.0});
  EXPECT_FALSE(
      CinderScheduler::select_forced(occupancy, 100.0, "h0-0").has_value());
  EXPECT_TRUE(
      CinderScheduler::select_forced(occupancy, 100.0, "h0-1").has_value());
}

TEST(FindHostTest, ByName) {
  const auto dc = small_dc(1, 2);
  EXPECT_EQ(find_host_by_name(dc, "h0-1"), 1u);
  EXPECT_FALSE(find_host_by_name(dc, "nope").has_value());
}

}  // namespace
}  // namespace ostro::os
