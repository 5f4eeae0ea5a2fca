// Tests for model persistence: save/load round-trips of the pre-processing
// artifact, schema validation, and corruption handling.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "subtab/core/model_io.h"
#include "subtab/core/subtab.h"
#include "subtab/core/select.h"
#include "subtab/data/datasets.h"

namespace subtab {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

SubTabConfig FastConfig() {
  SubTabConfig config;
  config.embedding.dim = 16;
  config.embedding.epochs = 2;
  config.embedding.num_threads = 1;
  config.seed = 3;
  return config;
}

TEST(ModelIoTest, RoundTripPreservesBinningAndVectors) {
  GeneratedDataset data = MakeSpotify(600, 61);
  PreprocessedTable pre = Preprocess(data.table, FastConfig());
  const std::string path = TempPath("model_roundtrip.stab");
  ASSERT_TRUE(SaveModel(pre, data.table, path).ok());

  Result<PreprocessedTable> loaded = LoadModel(data.table, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Token matrices identical.
  const BinnedTable& a = pre.binned();
  const BinnedTable& b = loaded->binned();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.total_bins(), b.total_bins());
  for (size_t r = 0; r < a.num_rows(); r += 7) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.token(r, c), b.token(r, c));
    }
  }
  // Embedding vectors identical.
  const Word2VecModel& ma = pre.cell_model().word2vec();
  const Word2VecModel& mb = loaded->cell_model().word2vec();
  ASSERT_EQ(ma.vocab_size(), mb.vocab_size());
  ASSERT_EQ(ma.dim(), mb.dim());
  for (size_t w = 0; w < ma.vocab_size(); ++w) {
    const auto va = ma.vector(w);
    const auto vb = mb.vector(w);
    for (size_t d = 0; d < ma.dim(); ++d) ASSERT_EQ(va[d], vb[d]);
  }
  // Labels survive.
  EXPECT_EQ(a.TokenLabel(a.token(0, 0)), b.TokenLabel(b.token(0, 0)));
}

TEST(ModelIoTest, SelectionFromLoadedModelMatchesOriginal) {
  GeneratedDataset data = MakeCyber(800, 62);
  PreprocessedTable pre = Preprocess(data.table, FastConfig());
  const std::string path = TempPath("model_select.stab");
  ASSERT_TRUE(SaveModel(pre, data.table, path).ok());
  Result<PreprocessedTable> loaded = LoadModel(data.table, path);
  ASSERT_TRUE(loaded.ok());

  SelectionScope scope;
  const Selection original = SelectSubTable(pre, 6, 5, scope, 99);
  const Selection reloaded = SelectSubTable(*loaded, 6, 5, scope, 99);
  EXPECT_EQ(original.row_ids, reloaded.row_ids);
  EXPECT_EQ(original.col_ids, reloaded.col_ids);
}

TEST(ModelIoTest, RejectsSchemaMismatch) {
  GeneratedDataset data = MakeSpotify(300, 63);
  PreprocessedTable pre = Preprocess(data.table, FastConfig());
  const std::string path = TempPath("model_schema.stab");
  ASSERT_TRUE(SaveModel(pre, data.table, path).ok());

  // Different column count.
  GeneratedDataset other = MakeCyber(300, 64);
  Result<PreprocessedTable> wrong = LoadModel(other.table, path);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

  // Same column count, different names: SP has 15 columns like CY.
  EXPECT_EQ(data.table.num_columns(), other.table.num_columns());
}

TEST(ModelIoTest, RejectsGarbageAndTruncation) {
  const std::string garbage = TempPath("model_garbage.stab");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "definitely not a model";
  }
  GeneratedDataset data = MakeSpotify(200, 65);
  Result<PreprocessedTable> r = LoadModel(data.table, garbage);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Truncate a valid file.
  PreprocessedTable pre = Preprocess(data.table, FastConfig());
  const std::string path = TempPath("model_trunc.stab");
  ASSERT_TRUE(SaveModel(pre, data.table, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  const std::string trunc_path = TempPath("model_trunc2.stab");
  {
    std::ofstream out(trunc_path, std::ios::binary);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  }
  Result<PreprocessedTable> t = LoadModel(data.table, trunc_path);
  EXPECT_FALSE(t.ok());
}

TEST(ModelIoTest, MissingFileIsNotFound) {
  GeneratedDataset data = MakeSpotify(100, 66);
  Result<PreprocessedTable> r = LoadModel(data.table, "/nonexistent/model.stab");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}


TEST(ModelIoTest, FitCachedRoundTrip) {
  GeneratedDataset data = MakeSpotify(500, 67);
  const std::string path = TempPath("model_fitcached.stab");
  std::remove(path.c_str());

  // First fit: cache miss, trains and saves.
  Result<SubTab> first = SubTab::FitCached(data.table, FastConfig(), path);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->preprocessed().timings().total_seconds, 0.0);

  // Second fit: cache hit, no training time recorded.
  Result<SubTab> second = SubTab::FitCached(data.table, FastConfig(), path);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->preprocessed().timings().training_seconds, 0.0);

  // Identical selections either way.
  SubTabView a = first->Select(5, 5);
  SubTabView b = second->Select(5, 5);
  EXPECT_EQ(a.row_ids, b.row_ids);
  EXPECT_EQ(a.col_ids, b.col_ids);
}

TEST(ModelIoTest, ConcurrentSavesNeverExposeATornArtifact) {
  GeneratedDataset data = MakeSpotify(400, 68);
  SubTabConfig other = FastConfig();
  other.seed = 4;
  const PreprocessedTable fits[2] = {Preprocess(data.table, FastConfig()),
                                     Preprocess(data.table, other)};
  const std::string path = TempPath("model_race.stab");
  ASSERT_TRUE(SaveModel(fits[0], data.table, path).ok());

  // Two savers overwrite one path with different fits while the main
  // thread loads: every load sees one complete artifact or the other.
  std::atomic<int> savers_running{2};
  std::atomic<int> save_failures{0};
  std::vector<std::thread> savers;
  for (const PreprocessedTable& fit : fits) {
    savers.emplace_back([&, fit_ptr = &fit] {
      for (int i = 0; i < 25; ++i) {
        if (!SaveModel(*fit_ptr, data.table, path).ok()) ++save_failures;
      }
      --savers_running;
    });
  }
  int loads = 0;
  std::string first_load_error;
  while (savers_running.load() > 0 || loads == 0) {
    Result<PreprocessedTable> loaded = LoadModel(data.table, path);
    if (!loaded.ok() && first_load_error.empty()) {
      first_load_error = loaded.status().ToString();
    }
    ++loads;
  }
  for (std::thread& saver : savers) saver.join();
  EXPECT_EQ(save_failures.load(), 0);
  EXPECT_EQ(first_load_error, "") << "a load saw a torn artifact";

  // No temp file outlives a successful save.
  const std::filesystem::path file(path);
  for (const auto& entry :
       std::filesystem::directory_iterator(file.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(
                  file.filename().string() + ".tmp", 0),
              0u)
        << "leftover temp file " << entry.path();
  }
}

// ---- Corrupt artifacts: every field LoadModel trusts to index or size
// ---- memory is patched in a saved artifact and must be refused with a
// ---- Status, never abort, mis-tokenize, or size a huge allocation.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

template <typename T>
T Get(const std::string& bytes, size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void Put(std::string* bytes, size_t at, T value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

/// Byte offsets of the fields LoadModel validates, parsed from a saved
/// artifact (the layout SaveModel writes in core/model_io.cc).
struct ArtifactLayout {
  struct Binning {
    size_t type = 0;            ///< u8 binning type.
    size_t edges = 0;           ///< u64 count, then f64 edges.
    size_t code_to_bin = 0;     ///< u64 count, then u32 bins.
    size_t labels = 0;          ///< u64 count, then length-prefixed strings.
    size_t labels_end = 0;
  };
  std::vector<Binning> columns;
  size_t dim = 0;  ///< u64 embedding dim.
};

ArtifactLayout ParseLayout(const std::string& bytes) {
  ArtifactLayout layout;
  size_t at = 8 + 4;  // Magic, version.
  const uint64_t columns = Get<uint64_t>(bytes, at);
  at += 8;
  for (uint64_t c = 0; c < columns; ++c) {
    at += 8 + Get<uint64_t>(bytes, at) + 1;  // Name, schema type.
  }
  at += 1 + 4 + 4 + 8;  // Strategy, num_bins, max_cat_bins, column count.
  for (uint64_t c = 0; c < columns; ++c) {
    ArtifactLayout::Binning binning;
    binning.type = at;
    at += 1;
    binning.edges = at;
    at += 8 + 8 * Get<uint64_t>(bytes, at);
    binning.code_to_bin = at;
    at += 8 + 4 * Get<uint64_t>(bytes, at) + 4;  // Bins, num_value_bins.
    binning.labels = at;
    const uint64_t labels = Get<uint64_t>(bytes, at);
    at += 8;
    for (uint64_t l = 0; l < labels; ++l) at += 8 + Get<uint64_t>(bytes, at);
    binning.labels_end = at;
    layout.columns.push_back(binning);
  }
  layout.dim = at + 8;  // After the u64 vocabulary size.
  return layout;
}

class CorruptArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeSpotify(600, 61);
    PreprocessedTable pre = Preprocess(data_.table, FastConfig());
    const std::string path = TempPath("model_corrupt.stab");
    ASSERT_TRUE(SaveModel(pre, data_.table, path).ok());
    saved_ = ReadFile(path);
    bytes_ = saved_;
    layout_ = ParseLayout(saved_);
    ASSERT_TRUE(LoadPatched().ok());  // The parser found the real layout.
  }

  /// The first column of the given kind with at least two edges (numeric)
  /// or two code_to_bin entries (categorical).
  const ArtifactLayout::Binning& FirstColumn(bool numeric) const {
    for (size_t c = 0; c < data_.table.num_columns(); ++c) {
      const ArtifactLayout::Binning& binning = layout_.columns[c];
      const size_t count = Get<uint64_t>(
          saved_, numeric ? binning.edges : binning.code_to_bin);
      if (data_.table.column(c).is_numeric() == numeric && count >= 2) {
        return binning;
      }
    }
    SUBTAB_CHECK(false);
    return layout_.columns[0];
  }

  Status LoadPatched() const {
    const std::string path = TempPath("model_corrupt_patched.stab");
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    }
    return LoadModel(data_.table, path).status();
  }

  void ExpectRejected(const char* what) {
    const Status status = LoadPatched();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
    bytes_ = saved_;
  }

  GeneratedDataset data_;
  std::string saved_;
  std::string bytes_;
  ArtifactLayout layout_;
};

TEST_F(CorruptArtifactTest, RejectsCodeToBinNotCoveringDictionary) {
  const ArtifactLayout::Binning& column = FirstColumn(/*numeric=*/false);
  const uint64_t entries = Get<uint64_t>(bytes_, column.code_to_bin);
  bytes_.erase(column.code_to_bin + 8 + 4, 4 * (entries - 1));
  Put<uint64_t>(&bytes_, column.code_to_bin, 1);
  ExpectRejected("code_to_bin shrunk to one entry");
}

TEST_F(CorruptArtifactTest, RejectsCodeToBinEntryOutOfRange) {
  const ArtifactLayout::Binning& column = FirstColumn(/*numeric=*/false);
  Put<uint32_t>(&bytes_, column.code_to_bin + 8, 100000);
  ExpectRejected("code_to_bin entry past num_value_bins");
}

TEST_F(CorruptArtifactTest, RejectsLabelCountMismatch) {
  const ArtifactLayout::Binning& column = FirstColumn(/*numeric=*/true);
  const uint64_t labels = Get<uint64_t>(bytes_, column.labels);
  bytes_.insert(column.labels_end, std::string(8, '\0'));  // An empty label.
  Put<uint64_t>(&bytes_, column.labels, labels + 1);
  ExpectRejected("one label too many");
}

TEST_F(CorruptArtifactTest, RejectsBadNumericEdges) {
  const ArtifactLayout::Binning& column = FirstColumn(/*numeric=*/true);
  const uint64_t edges = Get<uint64_t>(bytes_, column.edges);
  const size_t first = column.edges + 8;

  bytes_.erase(first + 8 * (edges - 1), 8);
  Put<uint64_t>(&bytes_, column.edges, edges - 1);
  ExpectRejected("edges.size() + 1 != num_value_bins");

  Put<double>(&bytes_, first, Get<double>(saved_, first + 8));
  Put<double>(&bytes_, first + 8, Get<double>(saved_, first));
  ExpectRejected("unsorted edges");

  Put<double>(&bytes_, first, std::numeric_limits<double>::quiet_NaN());
  ExpectRejected("NaN edge");
}

TEST_F(CorruptArtifactTest, RejectsBinningTypeThatDisagreesWithSchema) {
  Put<uint8_t>(&bytes_, FirstColumn(/*numeric=*/true).type, 1);
  ExpectRejected("numeric column binned as categorical");
  Put<uint8_t>(&bytes_, FirstColumn(/*numeric=*/false).type, 0);
  ExpectRejected("categorical column binned as numeric");
  Put<uint8_t>(&bytes_, FirstColumn(/*numeric=*/false).type, 7);
  ExpectRejected("unknown binning type");
}

TEST_F(CorruptArtifactTest, RejectsEmbeddingLargerThanFile) {
  // 2^40 sizes a ~TB allocation; 2^62 wraps vocab * dim to a small count.
  for (const uint64_t dim : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    Put<uint64_t>(&bytes_, layout_.dim, dim);
    ExpectRejected("dim larger than the bytes left");
  }
}

}  // namespace
}  // namespace subtab
