#include "subtab/core/model_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "subtab/util/string_util.h"

namespace subtab {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'A', 'B', 'M', 'O', 'D', 'L'};
constexpr uint32_t kVersion = 1;

// ---- Primitive writers/readers (little-endian host assumed; the format is
// ---- a local cache, not an interchange format). ---------------------------

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& in, std::string* s) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > (1ull << 30)) return false;  // Corrupt-length guard.
  s->resize(size);
  in.read(s->data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > (1ull << 32)) return false;
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return static_cast<bool>(in);
}

void WriteColumnBinning(std::ostream& out, const ColumnBinning& cb) {
  WritePod<uint8_t>(out, cb.type == ColumnType::kNumeric ? 0 : 1);
  WriteVector(out, cb.edges);
  WriteVector(out, cb.code_to_bin);
  WritePod<uint32_t>(out, cb.num_value_bins);
  WritePod<uint64_t>(out, cb.labels.size());
  for (const std::string& label : cb.labels) WriteString(out, label);
}

bool ReadColumnBinning(std::istream& in, ColumnBinning* cb, uint8_t* type) {
  if (!ReadPod(in, type)) return false;
  cb->type = *type == 0 ? ColumnType::kNumeric : ColumnType::kCategorical;
  if (!ReadVector(in, &cb->edges)) return false;
  if (!ReadVector(in, &cb->code_to_bin)) return false;
  if (!ReadPod(in, &cb->num_value_bins)) return false;
  uint64_t labels = 0;
  if (!ReadPod(in, &labels)) return false;
  if (labels > (1ull << 24)) return false;
  cb->labels.resize(labels);
  for (auto& label : cb->labels) {
    if (!ReadString(in, &label)) return false;
  }
  return true;
}

/// Checks a loaded column binning against the column it will tokenize, so a
/// corrupt artifact is refused instead of aborting in BinOfCode or minting
/// tokens whose bin spills into the column bits (MakeToken). O(dictionary).
Status ValidateColumnBinning(const ColumnBinning& cb, uint8_t type,
                             const Column& column) {
  const std::string& name = column.name();
  if (type > 1 || (type == 0) != column.is_numeric()) {
    return Status::InvalidArgument(
        StrFormat("corrupt model: binning type %u disagrees with column '%s'",
                  type, name.c_str()));
  }
  if (cb.num_value_bins >= kTokenMaxBins ||
      cb.labels.size() != cb.num_bins()) {
    return Status::InvalidArgument("corrupt model: bin count/labels of '" +
                                   name + "'");
  }
  if (column.is_numeric()) {
    if (cb.edges.size() + 1 != cb.num_value_bins) {
      return Status::InvalidArgument("corrupt model: edge count of '" + name +
                                     "'");
    }
    for (size_t i = 0; i < cb.edges.size(); ++i) {
      if (std::isnan(cb.edges[i]) || (i > 0 && cb.edges[i] < cb.edges[i - 1])) {
        return Status::InvalidArgument(
            "corrupt model: edges of '" + name + "' are NaN or unsorted");
      }
    }
    return Status::Ok();
  }
  if (cb.code_to_bin.size() < column.dictionary().size()) {
    return Status::InvalidArgument("corrupt model: code_to_bin of '" + name +
                                   "' does not cover its dictionary");
  }
  for (const uint32_t bin : cb.code_to_bin) {
    if (bin >= cb.num_value_bins) {
      return Status::InvalidArgument("corrupt model: code_to_bin of '" + name +
                                     "' names a bin out of range");
    }
  }
  return Status::Ok();
}

// Writes the artifact to `path` and closes it; the close flushes, so its
// failure (e.g. ENOSPC on the last buffer) is reported, not swallowed.
Status WriteArtifact(const PreprocessedTable& pre, const Table& table,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot open '" + path + "' for writing");

  out.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(out, kVersion);

  // Schema fingerprint for load-time validation.
  WritePod<uint64_t>(out, table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    WriteString(out, table.column(c).name());
    WritePod<uint8_t>(out, table.column(c).is_numeric() ? 0 : 1);
  }

  // Binning.
  const TableBinning& binning = pre.binned().binning();
  const BinningOptions& options = binning.options();
  WritePod<uint8_t>(out, static_cast<uint8_t>(options.strategy));
  WritePod<uint32_t>(out, options.num_bins);
  WritePod<uint32_t>(out, options.max_cat_bins);
  WritePod<uint64_t>(out, binning.num_columns());
  for (size_t c = 0; c < binning.num_columns(); ++c) {
    WriteColumnBinning(out, binning.column(c));
  }

  // Embedding.
  const Word2VecModel& model = pre.cell_model().word2vec();
  WritePod<uint64_t>(out, model.vocab_size());
  WritePod<uint64_t>(out, model.dim());
  for (size_t w = 0; w < model.vocab_size(); ++w) {
    const auto v = model.vector(w);
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
  }

  out.close();
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::Ok();
}

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Internal("cannot reopen '" + path + "': " + std::strerror(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  const int sync_errno = errno;
  if (::close(fd) != 0 || !synced) {
    return Status::Internal("fsync failed for '" + path + "': " +
                            std::strerror(synced ? errno : sync_errno));
  }
  return Status::Ok();
}

}  // namespace

Status SaveModel(const PreprocessedTable& pre, const Table& table,
                 const std::string& path) {
  // Write a private temp file beside `path`, sync it, and rename it over
  // the artifact: a reader, a concurrent saver or a crash sees the old
  // artifact or the complete new one, never a torn file. pid + counter keep
  // temp names unique across processes and threads sharing a directory.
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp =
      StrFormat("%s.tmp.%ld.%llu", path.c_str(), static_cast<long>(::getpid()),
                static_cast<unsigned long long>(next_temp.fetch_add(1)));
  Status status = WriteArtifact(pre, table, temp);
  if (status.ok()) status = SyncFile(temp);
  if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::Internal("cannot rename '" + temp + "' to '" + path +
                              "': " + std::strerror(errno));
  }
  if (!status.ok()) std::remove(temp.c_str());
  return status;
}

Result<PreprocessedTable> LoadModel(const Table& table, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open model file '" + path + "'");

  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a subtab model file");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) || version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported model version %u in '%s'", version, path.c_str()));
  }

  // Schema validation.
  uint64_t columns = 0;
  if (!ReadPod(in, &columns)) return Status::InvalidArgument("truncated model file");
  if (columns != table.num_columns()) {
    return Status::FailedPrecondition(
        StrFormat("model was trained on %llu columns, table has %zu",
                  static_cast<unsigned long long>(columns), table.num_columns()));
  }
  for (size_t c = 0; c < columns; ++c) {
    std::string name;
    uint8_t type = 0;
    if (!ReadString(in, &name) || !ReadPod(in, &type)) {
      return Status::InvalidArgument("truncated model file");
    }
    if (name != table.column(c).name()) {
      return Status::FailedPrecondition(
          StrFormat("column %zu mismatch: model '%s' vs table '%s'", c, name.c_str(),
                    table.column(c).name().c_str()));
    }
    const bool numeric = type == 0;
    if (numeric != table.column(c).is_numeric()) {
      return Status::FailedPrecondition("column type mismatch for '" + name + "'");
    }
  }

  // Binning.
  uint8_t strategy = 0;
  BinningOptions options;
  uint64_t binning_columns = 0;
  if (!ReadPod(in, &strategy) || !ReadPod(in, &options.num_bins) ||
      !ReadPod(in, &options.max_cat_bins) || !ReadPod(in, &binning_columns)) {
    return Status::InvalidArgument("truncated model file");
  }
  options.strategy = static_cast<BinningStrategy>(strategy);
  if (binning_columns != columns) {
    return Status::InvalidArgument("corrupt model: binning column count mismatch");
  }
  std::vector<ColumnBinning> column_binnings(binning_columns);
  for (size_t c = 0; c < columns; ++c) {
    uint8_t type = 0;
    if (!ReadColumnBinning(in, &column_binnings[c], &type)) {
      return Status::InvalidArgument("truncated model file (binning)");
    }
    SUBTAB_RETURN_IF_ERROR(
        ValidateColumnBinning(column_binnings[c], type, table.column(c)));
  }
  TableBinning binning = TableBinning::FromColumns(std::move(column_binnings), options);
  BinnedTable binned = BinnedTable::FromTable(table, binning);

  // Embedding.
  uint64_t vocab = 0;
  uint64_t dim = 0;
  if (!ReadPod(in, &vocab) || !ReadPod(in, &dim) || dim == 0) {
    return Status::InvalidArgument("truncated model file (embedding header)");
  }
  if (vocab != binned.total_bins()) {
    return Status::InvalidArgument("corrupt model: vocabulary/binning mismatch");
  }
  // The vectors must fit in what is left of the file; checked by division,
  // so a corrupt dim can neither overflow vocab * dim nor size a huge
  // allocation.
  const std::streampos vectors_at = in.tellg();
  in.seekg(0, std::ios::end);
  const uint64_t bytes_left = static_cast<uint64_t>(in.tellg() - vectors_at);
  in.seekg(vectors_at);
  if (vocab > 0 && dim > bytes_left / sizeof(float) / vocab) {
    return Status::InvalidArgument("corrupt model: embedding larger than file");
  }
  std::vector<float> vectors(vocab * dim);
  in.read(reinterpret_cast<char*>(vectors.data()),
          static_cast<std::streamsize>(vectors.size() * sizeof(float)));
  if (!in) return Status::InvalidArgument("truncated model file (embedding)");

  PreprocessTimings timings;  // Loading costs ~nothing; leave zeros.
  return PreprocessedTable(std::move(binned),
                           Word2VecModel::FromVectors(dim, std::move(vectors)),
                           timings);
}

}  // namespace subtab
