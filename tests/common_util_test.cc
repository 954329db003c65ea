#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/rand_util.h"
#include "common/worker_pool.h"
#include "storage/block_access_controller.h"

namespace mainline {

TEST(WorkerPoolTest, RunsAllTasksAndWaits) {
  common::WorkerPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; i++) {
    pool.SubmitTask([&] { counter.fetch_add(1); });
  }
  pool.WaitUntilAllFinished();
  EXPECT_EQ(counter.load(), 100);
  // Reusable after a wait.
  pool.SubmitTask([&] { counter.fetch_add(1); });
  pool.WaitUntilAllFinished();
  EXPECT_EQ(counter.load(), 101);
}

TEST(RandUtilTest, DeterministicAndInRange) {
  common::Xorshift a(7), b(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next()) << "same seed must give the same stream";
  }
  common::Xorshift rng(9);
  for (int i = 0; i < 10000; i++) {
    const uint64_t v = rng.Uniform(5, 15);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 15u);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  const std::string s = rng.AlphaString(4, 8);
  EXPECT_GE(s.size(), 4u);
  EXPECT_LE(s.size(), 8u);
}

TEST(RandUtilTest, ZipfIsSkewedTowardLowRanks) {
  common::Xorshift rng(3);
  common::ZipfDistribution zipf(1000, 0.9);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; i++) {
    const uint64_t v = zipf.Next(&rng);
    EXPECT_LT(v, 1000u);
    if (v < 100) low++;
  }
  // With theta=0.9, far more than 10% of draws land in the first 10% of keys.
  EXPECT_GT(low, total / 3);
}

TEST(Crc32cTest, BothImplementationsGiveTheCheckValue) {
  const char *check = "123456789";
  constexpr uint32_t kCheckValue = 0xE3069283;
  EXPECT_EQ(common::Crc32cTable(check, std::strlen(check)), kCheckValue);
  EXPECT_EQ(common::Crc32c(check, std::strlen(check)), kCheckValue);
  if (common::Crc32cHardwareAvailable()) {
    EXPECT_EQ(common::Crc32cHardware(check, std::strlen(check)), kCheckValue);
  }
  EXPECT_EQ(common::Crc32c(check, 0), 0u) << "empty input";
}

TEST(Crc32cTest, HardwareMatchesTheTableAtEveryLengthAndAlignment) {
  if (!common::Crc32cHardwareAvailable()) return;  // nothing to compare the table against
  common::Xorshift rng(3);
  std::vector<uint8_t> bytes(256);
  for (uint8_t &b : bytes) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t size = 0; offset + size <= bytes.size(); size++) {
      ASSERT_EQ(common::Crc32cHardware(bytes.data() + offset, size),
                common::Crc32cTable(bytes.data() + offset, size))
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(BlockAccessControllerTest, StateProtocol) {
  storage::BlockAccessController controller;
  controller.Initialize();
  EXPECT_EQ(controller.GetState(), storage::BlockState::kHot);
  EXPECT_FALSE(controller.TryAcquireRead()) << "in-place reads only on frozen blocks";

  // hot -> cooling -> freezing -> frozen
  EXPECT_TRUE(controller.TrySetCooling());
  EXPECT_FALSE(controller.TrySetCooling()) << "already cooling";
  EXPECT_TRUE(controller.TrySetFreezing());
  controller.SetFrozen();
  EXPECT_EQ(controller.GetState(), storage::BlockState::kFrozen);

  // Readers pile on a frozen block.
  EXPECT_TRUE(controller.TryAcquireRead());
  EXPECT_TRUE(controller.TryAcquireRead());
  EXPECT_EQ(controller.ReaderCount(), 2u);

  // A cooling attempt on a frozen block fails; a writer preempts instead.
  EXPECT_FALSE(controller.TrySetCooling());
  std::thread writer([&] { controller.WaitUntilHot(); });
  // Writer must block until readers leave.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(controller.GetState(), storage::BlockState::kHot) << "state flips immediately";
  controller.ReleaseRead();
  controller.ReleaseRead();
  writer.join();
  EXPECT_EQ(controller.ReaderCount(), 0u);

  // User transactions preempt cooling (the CAS back to hot).
  ASSERT_TRUE(controller.TrySetCooling());
  controller.WaitUntilHot();
  EXPECT_EQ(controller.GetState(), storage::BlockState::kHot);
  EXPECT_FALSE(controller.TrySetFreezing()) << "preempted cooling must not freeze";
}

}  // namespace mainline
