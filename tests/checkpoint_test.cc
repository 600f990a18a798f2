// Crash-safety tests for the APOT2 parameter format and the
// generation-retained CheckpointStore: round trips with aux state, APOT1
// rejection, corruption and truncation rejection, all-or-nothing
// load semantics, generation pruning, corrupt-newest fallback, TrainGuard
// disk spill, and kill-and-restore across all four predictor families.

#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/apots_model.h"
#include "core/train_guard.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "traffic/dataset_generator.h"
#include "util/rng.h"

namespace apots::nn {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

std::vector<std::vector<float>> SnapshotValues(
    const std::vector<Parameter*>& params) {
  std::vector<std::vector<float>> out;
  for (const Parameter* p : params) {
    out.emplace_back(p->value.data(), p->value.data() + p->value.size());
  }
  return out;
}

TEST(SerializeV2Test, RoundTripWithAuxBlob) {
  const std::string path = TempPath("apots_v2_aux.apot");
  apots::Rng rng_a(1);
  Sequential source;
  source.Emplace<Dense>(4, 3, &rng_a);
  const std::string aux_in("watermark=1234\0binary\x01\x02", 23);
  ASSERT_TRUE(SaveParameters(source.Parameters(), path, aux_in).ok());

  apots::Rng rng_b(2);
  Sequential target;
  target.Emplace<Dense>(4, 3, &rng_b);
  std::string aux_out;
  ASSERT_TRUE(LoadParameters(target.Parameters(), path, &aux_out).ok());
  EXPECT_EQ(aux_out, aux_in);
  EXPECT_EQ(SnapshotValues(source.Parameters()),
            SnapshotValues(target.Parameters()));
  std::filesystem::remove(path);
}

TEST(SerializeV2Test, RejectsHandCraftedV1File) {
  // A V1 file is magic + count + records, no aux length and no CRC footer.
  // Only CRC-checked APOT2 files load: V1 bytes fail on the magic before
  // any parameter is touched.
  const std::string path = TempPath("apots_v1_reject.apot");
  apots::Rng rng(3);
  Dense model(2, 2, &rng);
  const std::vector<Parameter*> params = model.Parameters();
  const std::vector<std::vector<float>> before = SnapshotValues(params);

  std::string buffer("APOT1");
  AppendPod<uint64_t>(&buffer, params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Parameter* p = params[i];
    AppendPod<uint64_t>(&buffer, p->name.size());
    buffer.append(p->name);
    AppendPod<uint64_t>(&buffer, p->value.rank());
    for (size_t d : p->value.shape()) AppendPod<uint64_t>(&buffer, d);
    std::vector<float> payload(p->value.size());
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<float>(i + 1) * 0.25f * static_cast<float>(j);
    }
    buffer.append(reinterpret_cast<const char*>(payload.data()),
                  payload.size() * sizeof(float));
  }
  WriteFile(path, buffer);

  const Status status = LoadParameters(params, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad magic"), std::string::npos);
  EXPECT_EQ(SnapshotValues(params), before);
  std::filesystem::remove(path);
}

TEST(SerializeV2Test, TruncatedFileRejected) {
  const std::string path = TempPath("apots_v2_trunc.apot");
  apots::Rng rng(4);
  Dense model(3, 3, &rng);
  ASSERT_TRUE(SaveParameters(model.Parameters(), path).ok());
  const std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(LoadParameters(model.Parameters(), path).code(),
            StatusCode::kIoError);
  std::filesystem::remove(path);
}

TEST(SerializeV2Test, BitFlipFailsChecksum) {
  const std::string path = TempPath("apots_v2_flip.apot");
  apots::Rng rng(5);
  Dense model(3, 3, &rng);
  ASSERT_TRUE(SaveParameters(model.Parameters(), path).ok());
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFile(path, bytes);
  const Status status = LoadParameters(model.Parameters(), path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(SerializeV2Test, FailedLoadLeavesModelUntouched) {
  // All-or-nothing contract: a file that validates partway through (the
  // second parameter has the wrong shape) must not clobber the first.
  const std::string path = TempPath("apots_v2_atomic.apot");
  apots::Rng rng_a(6);
  Sequential source;
  source.Emplace<Dense>(4, 4, &rng_a);
  source.Emplace<Dense>(4, 4, &rng_a);
  ASSERT_TRUE(SaveParameters(source.Parameters(), path).ok());

  apots::Rng rng_b(7);
  Sequential target;
  target.Emplace<Dense>(4, 4, &rng_b);
  target.Emplace<Dense>(4, 5, &rng_b);  // shape mismatch in param block 2
  const auto before = SnapshotValues(target.Parameters());
  EXPECT_EQ(LoadParameters(target.Parameters(), path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SnapshotValues(target.Parameters()), before);
  std::filesystem::remove(path);
}

TEST(SerializeV2Test, SaveLeavesNoTempFile) {
  const std::string dir = TempDir("apots_v2_tmpdir");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/params.apot";
  apots::Rng rng(8);
  Dense model(2, 2, &rng);
  ASSERT_TRUE(SaveParameters(model.Parameters(), path).ok());
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".apot") << entry.path();
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStoreTest, RecoverOnEmptyDirIsNotFound) {
  CheckpointStore store(TempDir("apots_ckpt_empty"));
  apots::Rng rng(9);
  Dense model(2, 2, &rng);
  EXPECT_EQ(store.Recover(model.Parameters()).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, GenerationsIncrementAndPrune) {
  const std::string dir = TempDir("apots_ckpt_prune");
  CheckpointStore store(dir, /*keep_generations=*/2);
  apots::Rng rng(10);
  Dense model(2, 2, &rng);
  for (uint64_t want = 1; want <= 5; ++want) {
    auto gen = store.Save(model.Parameters());
    ASSERT_TRUE(gen.ok());
    EXPECT_EQ(gen.value(), want);
  }
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(store.LatestGeneration(), 5u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackOneGeneration) {
  const std::string dir = TempDir("apots_ckpt_fallback");
  CheckpointStore store(dir);
  apots::Rng rng_a(11);
  Dense source(3, 2, &rng_a);
  ASSERT_TRUE(store.Save(source.Parameters(), "gen-one").ok());
  const auto gen1_values = SnapshotValues(source.Parameters());
  source.Parameters()[0]->value.data()[0] += 1.0f;  // drift before gen 2
  ASSERT_TRUE(store.Save(source.Parameters(), "gen-two").ok());

  std::string bytes = ReadFile(store.GenerationPath(2));
  bytes[bytes.size() / 3] ^= 0x11;
  WriteFile(store.GenerationPath(2), bytes);

  apots::Rng rng_b(12);
  Dense target(3, 2, &rng_b);
  auto recovered = store.Recover(target.Parameters());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().generation, 1u);
  EXPECT_EQ(recovered.value().aux, "gen-one");
  EXPECT_TRUE(recovered.value().fell_back());
  ASSERT_EQ(recovered.value().skipped.size(), 1u);
  EXPECT_EQ(SnapshotValues(target.Parameters()), gen1_values);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStoreTest, AllGenerationsCorruptIsIoError) {
  const std::string dir = TempDir("apots_ckpt_allbad");
  CheckpointStore store(dir);
  apots::Rng rng(13);
  Dense model(2, 2, &rng);
  ASSERT_TRUE(store.Save(model.Parameters()).ok());
  ASSERT_TRUE(store.Save(model.Parameters()).ok());
  for (uint64_t gen : store.ListGenerations()) {
    std::string bytes = ReadFile(store.GenerationPath(gen));
    bytes[bytes.size() - 1] ^= 0x01;
    WriteFile(store.GenerationPath(gen), bytes);
  }
  EXPECT_EQ(store.Recover(model.Parameters()).status().code(),
            StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStoreTest, MidRenameCrashLeavesStoreConsistent) {
  // Crash drill for the temp-file + rename protocol: the process died
  // after fully writing generation 2's temp file but before the rename.
  // The orphaned ".tmp" must be invisible to listing and recovery, and
  // the next Save must claim generation 2 anyway (the trunc-open reuses
  // the stray temp) and leave the directory clean.
  const std::string dir = TempDir("apots_ckpt_midrename");
  CheckpointStore store(dir);
  apots::Rng rng_a(15);
  Dense source(3, 2, &rng_a);
  ASSERT_TRUE(store.Save(source.Parameters(), "gen-one").ok());
  WriteFile(store.GenerationPath(2) + ".tmp",
            ReadFile(store.GenerationPath(1)));

  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  EXPECT_EQ(store.LatestGeneration(), 1u);
  apots::Rng rng_b(16);
  Dense target(3, 2, &rng_b);
  auto recovered = store.Recover(target.Parameters());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().generation, 1u);
  EXPECT_FALSE(recovered.value().fell_back());

  source.Parameters()[0]->value.data()[0] += 1.0f;
  auto gen = store.Save(source.Parameters(), "gen-two");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen.value(), 2u);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".apot") << entry.path();
  }
  recovered = store.Recover(target.Parameters());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().generation, 2u);
  EXPECT_EQ(recovered.value().aux, "gen-two");
  EXPECT_EQ(SnapshotValues(target.Parameters()),
            SnapshotValues(source.Parameters()));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStoreTest, TruncatedNewestFallsBackOneGeneration) {
  // The other mid-write crash shape: the rename happened but the image is
  // short (e.g. the disk filled). The CRC footer catches it and recovery
  // falls back, same as a bit flip.
  const std::string dir = TempDir("apots_ckpt_truncated");
  CheckpointStore store(dir);
  apots::Rng rng_a(17);
  Dense source(3, 2, &rng_a);
  ASSERT_TRUE(store.Save(source.Parameters(), "gen-one").ok());
  const auto gen1_values = SnapshotValues(source.Parameters());
  source.Parameters()[0]->value.data()[0] += 1.0f;
  ASSERT_TRUE(store.Save(source.Parameters(), "gen-two").ok());
  const std::string bytes = ReadFile(store.GenerationPath(2));
  WriteFile(store.GenerationPath(2), bytes.substr(0, bytes.size() / 2));

  apots::Rng rng_b(18);
  Dense target(3, 2, &rng_b);
  auto recovered = store.Recover(target.Parameters());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().generation, 1u);
  EXPECT_EQ(recovered.value().aux, "gen-one");
  EXPECT_TRUE(recovered.value().fell_back());
  ASSERT_EQ(recovered.value().skipped.size(), 1u);
  EXPECT_EQ(SnapshotValues(target.Parameters()), gen1_values);
  std::filesystem::remove_all(dir);
}

TEST(TrainGuardTest, SnapshotSpillsToDisk) {
  const std::string dir = TempDir("apots_guard_spill");
  apots::core::GuardConfig config;
  config.spill_dir = dir;
  config.spill_generations = 2;
  apots::core::TrainGuard guard(config);
  apots::Rng rng(14);
  Dense model(3, 3, &rng);

  guard.Snapshot(model.Parameters());
  ASSERT_TRUE(guard.last_spill_status().ok());
  ASSERT_NE(guard.spill_store(), nullptr);
  EXPECT_EQ(guard.spill_store()->LatestGeneration(), 1u);
  guard.Snapshot(model.Parameters());
  guard.Snapshot(model.Parameters());
  EXPECT_EQ(guard.spill_store()->ListGenerations(),
            (std::vector<uint64_t>{2, 3}));
  std::filesystem::remove_all(dir);
}

class KillRestoreTest
    : public ::testing::TestWithParam<apots::core::PredictorType> {};

TEST_P(KillRestoreTest, RestoreIsBitwiseAcrossPredictorFamilies) {
  // Simulated kill-and-restore: save a model, build a replacement with a
  // different init seed (so recovery provably overwrites every weight),
  // recover, and require bitwise-identical parameters plus the aux blob.
  // Each family gets its own directory: the instances are separate ctest
  // entries and may run concurrently.
  const std::string name = std::string("apots_ckpt_kill_") +
                           apots::core::PredictorTypeLabel(GetParam());
  const std::string dir = TempDir(name.c_str());
  apots::traffic::DatasetSpec spec;
  spec.num_roads = 3;
  spec.num_days = 2;
  spec.intervals_per_day = 96;
  spec.hyundai_calendar = false;
  const auto dataset = apots::traffic::GenerateDataset(spec);

  apots::core::ApotsConfig cfg;
  cfg.predictor = apots::core::PredictorHparams::Scaled(GetParam(), 16);
  cfg.features = apots::data::FeatureConfig::Both(12, 3);
  cfg.features.num_adjacent = 1;  // the tiny dataset has 3 roads
  cfg.training.adversarial = false;
  cfg.training.verbose = false;
  cfg.seed = 42;

  apots::core::ApotsModel original(&dataset, cfg);
  CheckpointStore store(dir);
  ASSERT_TRUE(store.Save(original.TrainableParameters(), "wm=88").ok());
  const auto want = SnapshotValues(original.TrainableParameters());

  cfg.seed = 4242;  // the "restarted process" initializes differently
  apots::core::ApotsModel restarted(&dataset, cfg);
  EXPECT_NE(SnapshotValues(restarted.TrainableParameters()), want);
  auto recovered = store.Recover(restarted.TrainableParameters());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().aux, "wm=88");
  EXPECT_FALSE(recovered.value().fell_back());
  EXPECT_EQ(SnapshotValues(restarted.TrainableParameters()), want);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, KillRestoreTest,
                         ::testing::Values(apots::core::PredictorType::kFc,
                                           apots::core::PredictorType::kLstm,
                                           apots::core::PredictorType::kCnn,
                                           apots::core::PredictorType::kHybrid),
                         [](const auto& info) {
                           switch (info.param) {
                             case apots::core::PredictorType::kFc:
                               return "Fc";
                             case apots::core::PredictorType::kLstm:
                               return "Lstm";
                             case apots::core::PredictorType::kCnn:
                               return "Cnn";
                             default:
                               return "Hybrid";
                           }
                         });

}  // namespace
}  // namespace apots::nn
