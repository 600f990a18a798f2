// Seeded mutation tests for the parsers that take outside input: the
// what-if context grammar, the fault and chaos kind lists, the dataset CSV
// reader and the APOT2 checkpoint loader. A fixed-seed Rng flips, inserts,
// deletes and splices bytes of a seed corpus. Nothing may abort, and
// whatever a parser accepts must hold the invariants of the type it
// builds.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "core/predictor.h"
#include "data/context.h"
#include "nn/serialize.h"
#include "traffic/dataset_generator.h"
#include "traffic/fault_injector.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/rng.h"

namespace apots {
namespace {

// One to four byte flips, inserts, deletes or splices with another entry;
// inserted bytes favour the grammars' own characters.
std::string Mutate(const std::vector<std::string>& corpus, Rng* rng) {
  static const std::string kBytes = "0123456789,;:@+-.=e\n";
  std::string s = corpus[rng->UniformInt(corpus.size())];
  const int edits = 1 + static_cast<int>(rng->UniformInt(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = rng->UniformInt(s.size() + 1);
    switch (rng->UniformInt(4)) {
      case 0:
        if (at < s.size()) s[at] ^= static_cast<char>(1 << rng->UniformInt(8));
        break;
      case 1:
        s.insert(at, 1,
                 rng->Bernoulli(0.5)
                     ? kBytes[rng->UniformInt(kBytes.size())]
                     : static_cast<char>(rng->UniformInt(256)));
        break;
      case 2:
        if (at < s.size()) s.erase(at, 1 + rng->UniformInt(4));
        break;
      default: {
        const std::string& other = corpus[rng->UniformInt(corpus.size())];
        s = s.substr(0, at) + other.substr(rng->UniformInt(other.size() + 1));
      }
    }
  }
  return s;
}

TEST(ParserMutationTest, ContextGrammarAcceptsOnlyRegistrableSpecs) {
  const std::vector<std::string> corpus = {
      "clear-event", "set-event", "rain+10", "day=holiday",
      "set-event@290:300,rain+5", "day=weekday", "rain-2.5@1:5,day=3",
      "clear-event;set-event;rain+10;day=holiday"};
  Rng rng(26);
  int accepted = 0, registered = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = Mutate(corpus, &rng);
    const auto spec = data::ParseContextSpec(text);
    if (!spec.ok()) continue;
    ++accepted;
    ASSERT_FALSE(spec.value().perturbations.empty()) << text;
    data::ContextTable table;
    if (!table.Register(1, spec.value()).ok()) continue;
    ++registered;
    for (const data::ContextPerturbation& p : spec.value().perturbations) {
      ASSERT_TRUE(std::isfinite(p.value)) << text;
      ASSERT_LE(p.begin, p.end) << text;
      if (p.kind == data::PerturbationKind::kDayTypeOverride) {
        ASSERT_TRUE(p.value >= 0.0f && p.value <= 3.0f) << text;
      }
    }
  }
  // The mutations reach both sides of every parser decision.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(registered, 100);
}

TEST(ParserMutationTest, KindListsAcceptOnlyKnownBits) {
  const std::vector<std::string> corpus = {
      "drop,stuck,noise,outage", "all", "poison", "drop",
      "kill,stall,partition,skew,corrupt", "kill,partition"};
  Rng rng(27);
  int fault_ok = 0, chaos_ok = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = Mutate(corpus, &rng);
    const auto faults = traffic::ParseFaultKinds(text);
    if (faults.ok()) {
      ++fault_ok;
      ASSERT_NE(faults.value(), 0u) << text;
      ASSERT_EQ(faults.value() & ~(traffic::kFaultAll | traffic::kFaultPoison),
                0u)
          << text;
    }
    const auto chaos_kinds = chaos::ParseChaosKinds(text);
    if (chaos_kinds.ok()) {
      ++chaos_ok;
      ASSERT_NE(chaos_kinds.value(), 0u) << text;
      ASSERT_EQ(chaos_kinds.value() & ~chaos::kChaosAll, 0u) << text;
      const auto again =
          chaos::ParseChaosKinds(chaos::ChaosKindsToString(chaos_kinds.value()));
      ASSERT_TRUE(again.ok()) << text;
      ASSERT_EQ(again.value(), chaos_kinds.value()) << text;
    }
  }
  EXPECT_GT(fault_ok, 100);
  EXPECT_GT(chaos_ok, 100);
}

TEST(ParserMutationTest, DatasetCsvAcceptsOnlyWellShapedFiniteData) {
  traffic::DatasetSpec spec = traffic::DatasetSpec::Small(3);
  spec.num_days = 2;
  spec.num_roads = 2;
  spec.intervals_per_day = 6;
  const std::string path =
      (std::filesystem::temp_directory_path() / "apots_mutation.csv").string();
  ASSERT_TRUE(traffic::GenerateDataset(spec).WriteCsv(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::string> corpus = {
      std::string(std::istreambuf_iterator<char>(in), {})};
  Rng rng(28);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << Mutate(corpus, &rng);
    const auto dataset = traffic::TrafficDataset::ReadCsv(path);
    if (!dataset.ok()) continue;
    ++accepted;
    const traffic::TrafficDataset& d = dataset.value();
    const auto table = ReadCsv(path);
    ASSERT_TRUE(table.ok());
    ASSERT_EQ(d.num_intervals(), static_cast<long>(table.value().rows.size()));
    const int day_col = table.value().ColumnIndex("day");
    ASSERT_EQ(table.value().rows.back()[day_col],
              std::to_string(d.num_days() - 1));
    for (long t = 0; t < d.num_intervals(); ++t) {
      ASSERT_TRUE(std::isfinite(d.Weather(t).temperature_c));
      ASSERT_TRUE(std::isfinite(d.Weather(t).precipitation_mm));
      for (int r = 0; r < d.num_roads(); ++r) {
        ASSERT_TRUE(std::isfinite(d.Speed(r, t)));
        ASSERT_TRUE(std::isfinite(d.EventFlag(r, t)));
      }
    }
  }
  EXPECT_GT(accepted, 10);
  std::filesystem::remove(path);
}

// The checkpoint loader past its checksum: every mutant of a saved H
// checkpoint gets a fresh CRC32 footer, so truncations and byte edits reach
// the parameter count, name length, rank, dims and aux length checks. A
// failed load must leave every parameter as it was; an accepted one must
// fill every parameter at the model's shapes.
TEST(ParserMutationTest, CheckpointLoaderWithValidChecksums) {
  apots::Rng init(30);
  auto model = core::MakePredictor(
      core::PredictorHparams::Scaled(core::PredictorType::kHybrid, 64), 13,
      12, &init);
  const std::vector<nn::Parameter*> params = model->Parameters();
  const std::string path =
      (std::filesystem::temp_directory_path() / "apots_mutation.apot")
          .string();
  ASSERT_TRUE(nn::SaveParameters(params, path, "watermark=77").ok());
  std::string body;
  {
    std::ifstream in(path, std::ios::binary);
    body.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(body.size(), 4u);
  body.resize(body.size() - 4);  // the footer is recomputed per mutant
  std::vector<tensor::Tensor> before;
  for (const nn::Parameter* p : params) before.push_back(p->value);

  const auto load = [&](const std::string& mutant) {
    const uint32_t crc = Crc32(mutant.data(), mutant.size());
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << mutant
        << std::string(reinterpret_cast<const char*>(&crc), sizeof(crc));
    std::string aux;
    const bool ok = nn::LoadParameters(params, path, &aux).ok();
    for (size_t i = 0; i < params.size(); ++i) {
      const tensor::Tensor& value = params[i]->value;
      EXPECT_EQ(value.shape(), before[i].shape()) << params[i]->name;
      if (ok) continue;
      EXPECT_EQ(std::memcmp(value.data(), before[i].data(),
                            value.size() * sizeof(float)),
                0)
          << "a failed load wrote " << params[i]->name;
    }
    // Later mutants start from the saved weights again.
    for (size_t i = 0; i < params.size(); ++i) params[i]->value = before[i];
    return ok;
  };

  int accepted = 0;
  for (size_t length = 0; length < body.size(); ++length) {
    accepted += load(body.substr(0, length));
  }
  EXPECT_EQ(accepted, 0) << "a truncated checkpoint loaded";
  EXPECT_TRUE(load(body));
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = body;
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits; ++e) {
      const size_t at = rng.UniformInt(mutant.size());
      switch (rng.UniformInt(3)) {
        case 0:
          mutant[at] ^= static_cast<char>(1 << rng.UniformInt(8));
          break;
        case 1:
          mutant.insert(at, 1 + rng.UniformInt(8),
                        static_cast<char>(rng.UniformInt(256)));
          break;
        default: {
          const size_t from = rng.UniformInt(body.size());
          mutant = mutant.substr(0, at) + body.substr(from);
        }
      }
    }
    accepted += load(mutant);
  }
  // Flips inside the float payloads or the aux bytes still parse.
  EXPECT_GT(accepted, 100);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace apots
