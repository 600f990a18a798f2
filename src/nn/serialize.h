#ifndef APOTS_NN_SERIALIZE_H_
#define APOTS_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "util/status.h"

namespace apots::nn {

/// Writes all parameter tensors to a binary file, crash-safely.
///
/// Format v2 (magic "APOT2"): parameter count, then per parameter
/// name length+bytes, rank, dims, float32 payload; then an opaque `aux`
/// blob (length+bytes) for caller state (e.g. a serving watermark), and
/// finally a CRC32 footer over every preceding byte. The file is written
/// to `path + ".tmp"` and atomically renamed into place, so a crash mid-
/// write never leaves a half-written file at `path` and readers observe
/// either the old generation or the new one, never a torn mix.
Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path,
                      const std::string& aux = std::string());

/// Loads parameters saved by SaveParameters into an equally-shaped model
/// (identical parameter names and shapes; construct the architecture
/// first). Only the "APOT2" format is read, and the CRC footer is verified
/// first: any other magic, or a truncated or bit-flipped file, fails with
/// a descriptive Status before any parameter is touched. The load is
/// all-or-nothing: every record is validated against the model before the
/// first write, so a failed load never leaves `params` partially
/// overwritten. When `aux` is non-null it receives the stored aux blob.
Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path, std::string* aux = nullptr);

}  // namespace apots::nn

#endif  // APOTS_NN_SERIALIZE_H_
