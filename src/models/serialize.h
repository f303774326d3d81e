/**
 * @file
 * Parameter-store checkpointing.
 *
 * A minimal, dependency-free binary format holding named FP32 tensors:
 * checkpoint/resume for the training examples, the serving layer's
 * model-loading path, and a stable interchange point for users
 * embedding the library.
 *
 * Current format ("ECHOCKPT"): 8-byte magic, u32 version, u32 reserved
 * (zero), u64 count, then per tensor: u64 name length, name bytes,
 * u64 ndim, i64 dims..., f32 data... — all little-endian.  The
 * versioned header exists so future layout changes can be detected
 * instead of misread.
 *
 * Any other "ECHO"-prefixed magic (such as the headerless version-1
 * layout) is an unsupported format: loadParams rejects it with an
 * error rather than guessing at its body.
 */
#ifndef ECHO_MODELS_SERIALIZE_H
#define ECHO_MODELS_SERIALIZE_H

#include <cstdint>
#include <string>

#include "models/params.h"

namespace echo::models {

/** Version written by saveParams and accepted by loadParams. */
inline constexpr uint32_t kCheckpointVersion = 2;

/** Write @p params to @p path (overwrites).  fatal() on I/O errors. */
void saveParams(const ParamStore &params, const std::string &path);

/** Read a checkpoint written by saveParams.  fatal() on bad files,
 *  including unsupported formats and versions. */
ParamStore loadParams(const std::string &path);

} // namespace echo::models

#endif // ECHO_MODELS_SERIALIZE_H
