#ifndef SUBTAB_CORE_MODEL_IO_H_
#define SUBTAB_CORE_MODEL_IO_H_

#include <string>

#include "subtab/core/preprocess.h"

/// \file model_io.h
/// Persistence for the pre-processing artifact. The paper's architecture
/// amortizes pre-processing (binning + embedding training) over an entire
/// EDA session (Fig. 1, Fig. 9); persisting the artifact extends that
/// amortization across sessions: an analyst re-opening the same table
/// re-loads the model in milliseconds instead of re-training.
///
/// Format: little-endian binary, magic "STABMODL", version 1. Contains the
/// per-column binning specs (edges / category-to-bin maps / labels) and the
/// embedding matrix. The raw table itself is NOT stored — the caller
/// supplies it on load, and the model is validated against its schema
/// (column count, names order-sensitive, types).

namespace subtab {

/// Serializes the pre-processing artifact of `pre` to `path`. The write is
/// atomic: a temp file beside `path` is written, closed, fsynced and renamed
/// over it, so readers never see a torn artifact; on failure the temp file
/// is removed and any previous artifact at `path` is left as it was.
/// `column_names` must be the source table's column names (stored for
/// validation on load); typically `table.schema()` provides them.
Status SaveModel(const PreprocessedTable& pre, const Table& table,
                 const std::string& path);

/// Loads a model saved by SaveModel and re-binds it to `table` (which must
/// match the schema recorded at save time). The binned token matrix is
/// rebuilt from the stored binning; the embedding is loaded verbatim.
Result<PreprocessedTable> LoadModel(const Table& table, const std::string& path);

}  // namespace subtab

#endif  // SUBTAB_CORE_MODEL_IO_H_
